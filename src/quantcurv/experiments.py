"""Seeded verification experiments producing tabular rows for the CLI.

Each experiment takes a validated parameter record plus a dedicated random
generator and returns (columns, rows, all_passed).  Randomness is used only
where the experiment calls for sampled inputs; everything else is
deterministic, so reruns with one seed reproduce rows exactly.

`schrodinger-intertwine` runs its independent cases side by side: this
process transports case 0, and a forked child per further CPU the process
may run on takes its share of the rest (`_run_cases`).  Each case runs the
same code on the same inputs as in one process, so its row is the same to
the bit; a case's error is re-raised here, the lowest-index one's first.
No setting chooses the process count, and a process with a second OS
thread forks nothing.
"""

from __future__ import annotations

import hashlib
import json
import cmath
import io
import math
import os
import pickle
import sys
from itertools import product

import numpy as np

from . import fock, sphere, teichmuller, transport
from .symplectic import (
    QuadraticHamiltonian,
    omega_pairing,
    p_minus_basis,
    p_plus_basis,
    standard_complex_structure,
)

__all__ = [
    "ConfigError",
    "EXPERIMENTS",
    "HAMILTONIAN_LIBRARY",
    "config_hash",
    "validate_config",
    "run_experiment",
]


class ConfigError(ValueError):
    """Raised for malformed or out-of-range experiment configuration."""


HAMILTONIAN_LIBRARY = {
    "rotation_z": sphere.rotation_z,
    "rotation_x": sphere.rotation_x,
    "rotation_y": sphere.rotation_y,
    "harmonic_real": sphere.harmonic_real,
    "harmonic_imag": sphere.harmonic_imag,
    "zonal_harmonic": sphere.zonal_harmonic,
}


def config_hash(config: dict) -> str:
    """Short stable digest of the whole config, echoed into every CSV row."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


_REQUIRED = object()


def _number(v, kind, label: str):
    """A positive finite number, booleans excluded; kind int also demands an integer."""
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not 0 < v <= sys.float_info.max:
        raise ConfigError(f"{label} must be a positive finite number")
    if kind is int and not isinstance(v, int):
        raise ConfigError(f"{label} must be an integer")
    return v if kind is int else float(v)


def _read(rec, where: str, spec: dict) -> dict:
    """Parse one config record: exactly the keys of `spec`, each by its kind.

    `spec` maps key -> (kind, default); default `_REQUIRED` marks a required
    key.  Kind `int` or `float` reads a positive finite number; any other kind
    is a callable (value, label) -> value that raises `ConfigError` naming label.
    """
    if not isinstance(rec, dict):
        raise ConfigError(f"{where} must be an object")
    for key in rec:
        if key not in spec:
            raise ConfigError(f"unknown key '{key}' in {where}")
    out = {}
    for key, (kind, default) in spec.items():
        label = f"'{key}' in {where}"
        if key not in rec:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key '{key}' in {where}")
            out[key] = default
        elif kind is int or kind is float:
            out[key] = _number(rec[key], kind, label)
        else:
            out[key] = kind(rec[key], label)
    return out


def _nonempty_list(v, label: str) -> list:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{label} must be a nonempty list")
    return v


def _output_path(v, label: str) -> str:
    """A nonempty path that a CSV can be written to: not a directory, and not
    under an existing file (checked at the nearest existing ancestor)."""
    if not isinstance(v, str) or not v or "\0" in v:
        raise ConfigError(f"{label} must be a nonempty string without NUL")
    target = os.path.abspath(v)
    if os.path.isdir(target):
        raise ConfigError(f"{label} names a directory: {v!r}")
    parent = os.path.dirname(target)
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise ConfigError(f"{label} {v!r} lies under {parent!r}, not a directory")
    return v


def _name_in(table: dict, what: str):
    """Reader of a string that must name an entry of `table`."""

    def read(v, label: str) -> str:
        if not isinstance(v, str) or v not in table:
            raise ConfigError(f"{label}: unknown {what} {v!r} (choices: {sorted(table)})")
        return v

    return read


_hamiltonian = _name_in(HAMILTONIAN_LIBRARY, "hamiltonian")


def _seed(v, label: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < 2**64:
        raise ConfigError(f"{label} must be an integer in [0, 2^64)")
    return v


def _check_bargmann(p: dict) -> dict:
    out = _read(p, "bargmann-curvature parameters", {
        "n": (int, _REQUIRED), "N": (int, _REQUIRED), "D": (int, _REQUIRED),
        "n_random_pairs": (int, 20), "tol_identity": (float, 1e-10),
        "tol_scalar": (float, 1e-8), "tol_ratio_spread": (float, 1e-6),
    })
    if out["n"] not in (1, 2):
        raise ConfigError("bargmann n must be 1 or 2")
    if out["n_random_pairs"] < 2:
        raise ConfigError("'n_random_pairs' must be >= 2: the spread compares two ratios")
    if out["n_random_pairs"] > fock.FOCK_PAIRS_MAX:
        raise ConfigError(
            f"'n_random_pairs' must be <= {fock.FOCK_PAIRS_MAX}: "
            "the pairs are one batch, ~80 KB each at D = 40"
        )
    if out["D"] < 8:
        raise ConfigError("bargmann D must be >= 8 (curvature needs degree margin)")
    if out["D"] > fock.FOCK_DEGREE_MAX:
        raise ConfigError(f"bargmann D must be <= {fock.FOCK_DEGREE_MAX}: a run costs ~D^6")
    if out["N"] > fock.FOCK_LEVEL_MAX:
        raise ConfigError(f"bargmann N must be <= {fock.FOCK_LEVEL_MAX}")
    return out


def _run_bargmann(p: dict, rng: np.random.Generator) -> tuple[list, list, bool]:
    n, N, D = p["n"], p["N"], p["D"]
    trunc = fock.FockTruncation(n=n, N=N, D=D)
    pairs = _index_pairs(n)
    holo = [sphere.ChartFunction.monomial(_pair_alpha(n, m, l)) for m, l in pairs]
    anti = [h.conj() for h in holo]
    plus = [fock.hamiltonian_bipoly(q) for q in p_plus_basis(n)]
    minus = [fock.hamiltonian_bipoly(q) for q in p_minus_basis(n)]
    # (case, left, right, scale): the curvature of each (left, right) pair of
    # index pairs (m, l), (r, s) is scale (d_mr d_ls + d_ms d_lr) times the
    # identity; a case with two tables reports the larger deviation
    tables = [
        ("holomorphic-pairs-zero", holo, holo, 0.0),
        ("antiholomorphic-pairs-zero", anti, anti, 0.0),
        ("mixed-pair-identity", holo, anti, 4.0),
        ("deformation-cross-identity", plus, minus, -8.0j),
        ("deformation-same-zero", plus, plus, 0.0),
        ("deformation-same-zero", minus, minus, 0.0),
    ]

    def max_dev(left, right, scale):
        # one curvature batch per table, freed on return; each pair's columns
        # are reduced in place
        curvs = fock.curvature_operator([(h1, h2) for h1 in left for h2 in right], trunc)
        worst = 0.0
        for ((m, l), (r, s)), cols in zip(product(pairs, repeat=2), curvs):
            diag = np.arange(cols.shape[1])
            cols[diag, diag] -= scale * ((m == r) * (l == s) + (m == s) * (l == r))
            worst = max(worst, float(np.linalg.norm(cols)))
        return worst

    devs = {}
    for case, left, right, scale in tables:
        worst = max_dev(left, right, scale)
        devs[case] = max(devs[case], worst) if case in devs else worst

    # the random pairs are drawn first, then checked in order as one batch
    j1 = standard_complex_structure(1)
    gp, gm = p_plus_basis(1)[0].generator, p_minus_basis(1)[0].generator
    drawn = []
    attempts = 0
    while len(drawn) < p["n_random_pairs"] and attempts < 10 * p["n_random_pairs"]:
        attempts += 1
        c = rng.standard_normal(4)
        q1 = QuadraticHamiltonian(c[0] * gp + c[1] * gm)
        q2 = QuadraticHamiltonian(c[2] * gp + c[3] * gm)
        if abs(omega_pairing(q1.generator, q2.generator, j1)) >= 1e-6:
            drawn.append((q1, q2))
    ratios = []
    for res in fock.verify_scalar_curvature(drawn, fock.FockTruncation(n=1, N=N, D=D)):
        if res["deviation"] > p["tol_scalar"]:
            ratios.append(None)
            break
        ratios.append(res["ratio"])
    valid = [r for r in ratios if r is not None]
    if valid:
        mean_ratio = sum(valid) / len(valid)
        spread = max(abs(r - mean_ratio) for r in valid) / abs(mean_ratio)
    else:
        mean_ratio = complex(math.nan, math.nan)
        spread = math.inf
    scalar_ok = all(r is not None for r in ratios) and len(valid) == p["n_random_pairs"]

    columns = ["case", "n", "N", "D", "measured", "measured_imag", "tolerance", "passed"]
    tol = p["tol_identity"]
    rows = [[case, n, N, D, dev, 0.0, tol, dev <= tol] for case, dev in devs.items()] + [
        ["scalar-ratio-spread", 1, N, D, spread, 0.0, p["tol_ratio_spread"], scalar_ok and spread <= p["tol_ratio_spread"]],
        ["scalar-ratio-value", 1, N, D, mean_ratio.real, mean_ratio.imag, math.nan, cmath.isfinite(mean_ratio)],
    ]
    return columns, rows, all(r[-1] for r in rows)


def _index_pairs(n: int) -> list[tuple[int, int]]:
    return [(m, l) for m in range(n) for l in range(m, n)]


def _pair_alpha(n: int, m: int, l: int) -> tuple:
    alpha = [0] * n
    alpha[m] += 1
    alpha[l] += 1
    return tuple(alpha)


def _levels(v, label: str) -> list:
    levels = [_number(n, int, label) for n in _nonempty_list(v, label)]
    if any(lo >= hi for lo, hi in zip(levels, levels[1:])):
        raise ConfigError(f"{label} must be a strictly ascending list of positive integers")
    if levels[-1] > sphere.EXACT_LEVEL_MAX:
        raise ConfigError(
            f"entries of {label} must be <= {sphere.EXACT_LEVEL_MAX}, "
            "the largest level verified for the closed-form pairings"
        )
    return levels


def _hamiltonian_pair(v, label: str) -> list:
    if not isinstance(v, list) or len(v) != 2:
        raise ConfigError(f"{label} must name exactly two fields")
    return [_hamiltonian(name, label) for name in v]


def _check_sphere(p: dict) -> dict:
    return _read(p, "sphere-convergence parameters", {
        "N_list": (_levels, _REQUIRED),
        "hamiltonians": (_hamiltonian_pair, ["harmonic_real", "zonal_harmonic"]),
        "ratio_bound": (float, 0.7), "ratio_min_N": (int, 16),
    })


def _run_sphere(p: dict, _rng) -> tuple[list, list, bool]:
    h1 = HAMILTONIAN_LIBRARY[p["hamiltonians"][0]]()
    h2 = HAMILTONIAN_LIBRARY[p["hamiltonians"][1]]()
    table = sphere.symbol_decay_experiment(h1, h2, p["N_list"])
    columns = ["N", "dim", "eps", "ratio", "trace_lhs", "trace_rhs", "passed"]
    rows = []
    prev = None
    for row in table:
        ratio = math.nan
        if prev:  # after an exact zero, nothing is left to decay unless eps grew
            ratio = row["eps"] / prev["eps"] if prev["eps"] else (math.inf if row["eps"] else 0.0)
        ok = True
        if prev and prev["N"] >= p["ratio_min_N"]:
            ok = ratio <= p["ratio_bound"]
        rows.append(
            [row["N"], row["dim"], row["eps"], ratio, row["trace_lhs"], row["trace_rhs"], ok]
        )
        prev = row
    return columns, rows, all(r[-1] for r in rows)


def _cases(v, label: str) -> list:
    spec = {"hamiltonian": (_hamiltonian, _REQUIRED), "tol": (float, _REQUIRED)}
    return [
        _read(case, f"item {i} of {label}", spec)
        for i, case in enumerate(_nonempty_list(v, label))
    ]


def _check_schrodinger(p: dict) -> dict:
    out = _read(p, "schrodinger-intertwine parameters", {
        "N": (int, _REQUIRED), "dt": (float, _REQUIRED), "t_end": (float, _REQUIRED),
        "cases": (_cases, _REQUIRED), "tol_residual": (float, 1e-5),
    })
    if out["N"] > sphere.GRID_LEVEL_MAX:
        raise ConfigError(
            f"schrodinger N must be <= {sphere.GRID_LEVEL_MAX}, "
            "the largest level the quadrature grid resolves"
        )
    t_end, dt = out["t_end"], out["dt"]
    if t_end > 2:
        raise ConfigError("t_end must lie in (0, 2]")
    # round(t_end / dt) > the bound, unrounded: a subnormal dt makes it inf
    if t_end / dt > transport.TRANSPORT_STEPS_MAX + 0.5:
        raise ConfigError(
            f"t_end/dt = {t_end / dt:.6g} steps exceeds "
            f"{transport.TRANSPORT_STEPS_MAX}, the transport step bound "
            "(~0.13 s a step of one case at N = 72, so ~11 min a case there); raise 'dt'"
        )
    return out


def _run_schrodinger(p: dict, _rng) -> tuple[list, list, bool]:
    space = sphere.SectionSpace(p["N"])
    # generator_drift and the three columns after passed are reported only
    columns = [
        "hamiltonian", "N", "dt", "t_end", "intertwine", "max_eq_range", "max_eq_deriv",
        "generator_drift", "tol_intertwine", "tol_residual", "passed", "gram_defect",
        "isometry_defect", "projector_deviation",
    ]
    rows = _run_cases(lambda case: _schrodinger_row(p, space, case), p["cases"])
    return columns, rows, all(r[columns.index("passed")] for r in rows)


def _schrodinger_row(p: dict, space, case: dict) -> list:
    res = transport.parallel_transport(
        HAMILTONIAN_LIBRARY[case["hamiltonian"]](), space, t_end=p["t_end"], dt=p["dt"]
    )
    inter = transport.intertwine_check(res)
    max_range = max(r["eq_range"] for r in res.residuals)
    max_deriv = max(r["eq_deriv"] for r in res.residuals)
    ok = (
        inter <= case["tol"]
        and max_range <= p["tol_residual"]
        and max_deriv <= p["tol_residual"]
    )
    return [
        case["hamiltonian"], p["N"], res.dt, p["t_end"], inter, max_range, max_deriv,
        res.generator_drift, case["tol"], p["tol_residual"], ok, res.gram_defect,
        res.isometry_defect(), res.projector_deviation,
    ]


def _case_processes(n_cases: int) -> int:
    """How many processes `_run_cases` shares `n_cases` among: one per CPU
    this process may run on, at most one a case.  Just this one where fork is
    unsupported (no `os.sched_getaffinity`) or unsafe: a second OS thread,
    such as a multi-threaded BLAS starts, may hold a lock across the fork, and
    Python >= 3.12 warns on forking it."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    try:
        if len(os.listdir("/proc/self/task")) > 1:
            return 1
    except OSError:
        return 1
    return min(n_cases, len(os.sched_getaffinity(0)))


def _outcomes(run_case, cases: list, first: int, step: int):
    """(index, value, error) of cases first, first + step, ... in order,
    stopping after the first that raises."""
    for i in range(first, len(cases), step):
        try:
            value = run_case(cases[i])
        except Exception as exc:  # noqa: BLE001 - handed to _run_cases to re-raise
            yield i, None, exc
            return
        yield i, value, None


def _run_cases(run_case, cases: list) -> list:
    """[run_case(case) for case in cases] on up to `_case_processes` CPUs.

    With P processes, this one runs cases 0, P, 2P, ... and forked child k
    cases k, k + P, ..., each pickling its outcomes down a pipe as they come.
    The error of the lowest-index case that raised is re-raised here, with
    its type and message; a child that ends without a case's outcome raises
    RuntimeError naming the case and the child's exit status.  Every child
    is reaped before this returns or raises.
    """
    procs = _case_processes(len(cases))
    children = []  # (pid, read end of its pipe), until reaped
    status = {}  # child k -> exit code, negative for a signal
    try:
        for k in range(1, procs):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: its share, then exit skipping the parent's cleanup
                code = 1
                try:
                    os.close(read)
                    with open(write, "wb") as out:
                        for i, value, error in _outcomes(run_case, cases, k, procs):
                            try:
                                blob = pickle.dumps((i, value, error))
                            except Exception:  # noqa: BLE001 - an error pickle refuses goes as text
                                error = RuntimeError(f"{type(error).__name__}: {error}")
                                blob = pickle.dumps((i, None, error))
                            out.write(blob)
                            out.flush()
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children.append((pid, open(read, "rb")))
        outcomes = {i: (value, error) for i, value, error in _outcomes(run_case, cases, 0, procs)}
        for k in range(1, procs):
            pid, pipe = children[0]  # child k
            blob = pipe.read()
            stream = io.BytesIO(blob)
            try:
                while stream.tell() < len(blob):
                    i, value, error = pickle.load(stream)
                    outcomes[i] = (value, error)
            except Exception:  # noqa: BLE001 - an outcome torn or not unpickled counts as none
                pass
            status[k] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            pipe.close()
    finally:
        for pid, pipe in children:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            pipe.close()
    for i, case in enumerate(cases):
        if i not in outcomes:
            raise RuntimeError(
                f"the process running case {i} ({case}) ended with exit status "
                f"{status[i % procs]} before that case's outcome"
            )
        if outcomes[i][1] is not None:
            raise outcomes[i][1]
    return [outcomes[i][0] for i in range(len(cases))]


def _check_teichmuller(p: dict) -> dict:
    out = _read(p, "teichmuller-symbol parameters", {
        "n_tuples": (int, _REQUIRED), "tol_pairing": (float, 1e-10),
        "tol_sp": (float, 1e-9), "tol_wp": (float, 1e-12),
    })
    if out["n_tuples"] > teichmuller.TEICHMULLER_TUPLES_MAX:
        raise ConfigError(
            f"'n_tuples' must be <= {teichmuller.TEICHMULLER_TUPLES_MAX}: ~0.22 ms a tuple"
        )
    return out


_J0 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _slice_errors(pt: teichmuller.SlicePoint, v1: complex, v2: complex) -> tuple:
    """The pairing-identity, sp-membership, metric-factorization and
    wp-reduction errors of one tuple; the pairings' are relative to
    `teichmuller.pairing_scale`, as the pairing itself cancels for nearly
    parallel v1 and v2."""
    u1 = teichmuller.slice_variation(pt, v1)
    u2 = teichmuller.slice_variation(pt, v2)
    lhs = teichmuller.pairing_trace(pt, u1, u2)
    rhs = teichmuller.pairing_closed_form(pt, v1, v2)
    pair = abs(lhs - rhs) / teichmuller.pairing_scale(pt, v1, v2)

    h = teichmuller.h_matrix(pt)
    sp = float(np.max(np.abs(h.T @ _J0 @ h - _J0)))
    g = teichmuller.metric_matrix(pt)
    factored = pt.sigma * np.linalg.inv(_J0) @ h @ _J0 @ np.linalg.inv(h)
    fact = float(np.max(np.abs(g - factored)))

    flat = teichmuller.SlicePoint(
        sigma=pt.sigma,
        rho0=pt.rho0,
        E0=pt.sigma / (pt.f0 * pt.rho0),
        f0=pt.f0,
        Phi0=0.0,
    )
    w1 = teichmuller.slice_variation(flat, v1)
    w2 = teichmuller.slice_variation(flat, v2)
    wp_lhs = teichmuller.pairing_trace(flat, w1, w2)
    wp_rhs = teichmuller.wp_integrand(flat.sigma, v1, v2)
    wp = abs(wp_lhs - wp_rhs) / teichmuller.pairing_scale(flat, v1, v2)
    return pair, sp, fact, wp


def _run_teichmuller(p: dict, rng: np.random.Generator) -> tuple[list, list, bool]:
    worst = (0.0,) * 4
    for _ in range(p["n_tuples"]):
        pt = teichmuller.random_slice_point(rng)
        v1 = rng.standard_normal() + 1j * rng.standard_normal()
        v2 = rng.standard_normal() + 1j * rng.standard_normal()
        worst = tuple(map(max, worst, _slice_errors(pt, v1, v2)))
    worst_pair, worst_sp, worst_fact, worst_wp = worst

    columns = ["case", "n_tuples", "measured", "tolerance", "passed"]
    rows = [
        ["pairing-identity", p["n_tuples"], worst_pair, p["tol_pairing"], worst_pair <= p["tol_pairing"]],
        ["sp-membership", p["n_tuples"], worst_sp, p["tol_sp"], worst_sp <= p["tol_sp"]],
        ["metric-factorization", p["n_tuples"], worst_fact, p["tol_sp"], worst_fact <= p["tol_sp"]],
        ["wp-reduction", p["n_tuples"], worst_wp, p["tol_wp"], worst_wp <= p["tol_wp"]],
    ]
    return columns, rows, all(r[-1] for r in rows)


EXPERIMENTS = {
    "bargmann-curvature": (_check_bargmann, _run_bargmann),
    "sphere-convergence": (_check_sphere, _run_sphere),
    "schrodinger-intertwine": (_check_schrodinger, _run_schrodinger),
    "teichmuller-symbol": (_check_teichmuller, _run_teichmuller),
}


def validate_config(config: dict) -> list[dict]:
    """Validate the whole config; returns normalized experiment entries."""
    root = _read(config, "config root", {
        "seed": (_seed, _REQUIRED), "experiments": (_nonempty_list, _REQUIRED),
    })
    spec = {
        "experiment": (_name_in(EXPERIMENTS, "experiment"), _REQUIRED),
        # read by the experiment's own checker below
        "parameters": (lambda v, _label: v, _REQUIRED),
        "output_path": (_output_path, _REQUIRED),
    }
    out, writers = [], {}
    for i, entry in enumerate(root["experiments"]):
        where = f"experiments[{i}]"
        entry = _read(entry, where, spec)
        target = os.path.abspath(entry["output_path"])
        if target in writers:
            raise ConfigError(f"{writers[target]} and {where} both write {target}")
        writers[target] = where
        entry["parameters"] = EXPERIMENTS[entry["experiment"]][0](entry["parameters"])
        out.append(entry)
    return out


def run_experiment(
    name: str, params: dict, rng: np.random.Generator
) -> tuple[list, list, bool]:
    """Execute one experiment; returns (columns, rows, all_passed).

    Params are validated and defaulted here, so callers may pass raw dicts.
    """
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment '{name}'")
    checker, runner = EXPERIMENTS[name]
    return runner(checker(params), rng)
