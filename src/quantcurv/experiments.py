"""Seeded verification experiments producing tabular rows for the CLI.

Each experiment takes a validated parameter record plus a dedicated random
generator and returns (columns, rows, all_passed).  Randomness is used only
where the experiment calls for sampled inputs; everything else is
deterministic, so reruns with one seed reproduce rows exactly.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from . import fock, sphere, teichmuller, transport
from .symplectic import omega_pairing, p_minus_basis, p_plus_basis, standard_complex_structure

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


def _require_keys(rec: dict, allowed: dict, where: str) -> None:
    for key in rec:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}")
    for key, required in allowed.items():
        if required and key not in rec:
            raise ConfigError(f"missing required key '{key}' in {where}")


def _positive(rec, key, where, kind=float):
    v = rec[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool) or v <= 0:
        raise ConfigError(f"'{key}' in {where} must be a positive number")
    return kind(v)


def _check_bargmann(p: dict) -> dict:
    _require_keys(
        p,
        {
            "n": True,
            "N": True,
            "D": True,
            "n_random_pairs": False,
            "tol_identity": False,
            "tol_scalar": False,
            "tol_ratio_spread": False,
        },
        "bargmann-curvature parameters",
    )
    out = {
        "n": int(_positive(p, "n", "bargmann", int)),
        "N": int(_positive(p, "N", "bargmann", int)),
        "D": int(_positive(p, "D", "bargmann", int)),
        "n_random_pairs": int(p.get("n_random_pairs", 20)),
        "tol_identity": float(p.get("tol_identity", 1e-10)),
        "tol_scalar": float(p.get("tol_scalar", 1e-8)),
        "tol_ratio_spread": float(p.get("tol_ratio_spread", 1e-6)),
    }
    if out["n"] not in (1, 2):
        raise ConfigError("bargmann n must be 1 or 2")
    if out["D"] < 8:
        raise ConfigError("bargmann D must be >= 8 (curvature needs degree margin)")
    return out


def _run_bargmann(p: dict, rng: np.random.Generator) -> tuple[list, list, bool]:
    n, N, D = p["n"], p["N"], p["D"]
    trunc = fock.FockTruncation(n=n, N=N, D=D)
    holo = [
        fock.BiPolynomial.monomial(n, _pair_alpha(n, m, l))
        for m, l in _index_pairs(n)
    ]
    anti = [h.conj() for h in holo]
    pairs = _index_pairs(n)

    def max_dev(op_list_1, op_list_2, target):
        worst = 0.0
        for i, h1 in enumerate(op_list_1):
            for j, h2 in enumerate(op_list_2):
                curv = fock.curvature_operator(h1, h2, trunc)
                cols = curv.columns()
                t = target(pairs[i], pairs[j], cols.shape[1])
                block = cols.copy()
                block[: cols.shape[1], :] -= t
                worst = max(worst, float(np.linalg.norm(block)))
        return worst

    zero = lambda *_: 0.0
    dev_holo = max_dev(holo, holo, zero)
    dev_anti = max_dev(anti, anti, zero)

    def mixed_target(pair1, pair2, k):
        (m, l), (r, s) = pair1, pair2
        coeff = 4.0 * ((m == r) * (l == s) + (m == s) * (l == r))
        return coeff * np.eye(k)

    dev_mixed = max_dev(holo, anti, mixed_target)

    plus = [fock.hamiltonian_bipoly(q) for q in p_plus_basis(n)]
    minus = [fock.hamiltonian_bipoly(q) for q in p_minus_basis(n)]

    def cross_target(pair1, pair2, k):
        (m, l), (r, s) = pair1, pair2
        coeff = -8.0j * ((m == r) * (l == s) + (m == s) * (l == r))
        return coeff * np.eye(k)

    dev_cross = max_dev(plus, minus, cross_target)
    dev_same = max(max_dev(plus, plus, zero), max_dev(minus, minus, zero))

    ratios = []
    trunc1 = fock.FockTruncation(n=1, N=N, D=D)
    j1 = standard_complex_structure(1)
    attempts = 0
    while len(ratios) < p["n_random_pairs"] and attempts < 10 * p["n_random_pairs"]:
        attempts += 1
        c = rng.standard_normal(4)
        q1 = _random_p_element(c[:2])
        q2 = _random_p_element(c[2:])
        om = omega_pairing(q1.generator, q2.generator, j1)
        if abs(om) < 1e-6:
            continue
        res = fock.verify_scalar_curvature(q1, q2, trunc1)
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
    rows = [
        ["holomorphic-pairs-zero", n, N, D, dev_holo, 0.0, p["tol_identity"], dev_holo <= p["tol_identity"]],
        ["antiholomorphic-pairs-zero", n, N, D, dev_anti, 0.0, p["tol_identity"], dev_anti <= p["tol_identity"]],
        ["mixed-pair-identity", n, N, D, dev_mixed, 0.0, p["tol_identity"], dev_mixed <= p["tol_identity"]],
        ["deformation-cross-identity", n, N, D, dev_cross, 0.0, p["tol_identity"], dev_cross <= p["tol_identity"]],
        ["deformation-same-zero", n, N, D, dev_same, 0.0, p["tol_identity"], dev_same <= p["tol_identity"]],
        ["scalar-ratio-spread", 1, N, D, spread, 0.0, p["tol_ratio_spread"], scalar_ok and spread <= p["tol_ratio_spread"]],
        ["scalar-ratio-value", 1, N, D, mean_ratio.real, mean_ratio.imag, math.nan, True],
    ]
    return columns, rows, all(r[-1] for r in rows)


def _index_pairs(n: int) -> list[tuple[int, int]]:
    return [(m, l) for m in range(n) for l in range(m, n)]


def _pair_alpha(n: int, m: int, l: int) -> tuple:
    alpha = [0] * n
    alpha[m] += 1
    alpha[l] += 1
    return tuple(alpha)


def _random_p_element(c):
    from .symplectic import QuadraticHamiltonian

    xp = np.array([[0.0, 4.0], [4.0, 0.0]])
    xm = np.array([[4.0, 0.0], [0.0, -4.0]])
    return QuadraticHamiltonian(c[0] * xp + c[1] * xm)


def _check_sphere(p: dict) -> dict:
    _require_keys(
        p,
        {
            "N_list": True,
            "hamiltonians": False,
            "ratio_bound": False,
            "ratio_min_N": False,
        },
        "sphere-convergence parameters",
    )
    n_list = p["N_list"]
    if (
        not isinstance(n_list, list)
        or not n_list
        or any(not isinstance(v, int) or v < 1 for v in n_list)
        or sorted(n_list) != n_list
    ):
        raise ConfigError("N_list must be an ascending list of positive integers")
    if n_list[-1] > sphere.EXACT_LEVEL_MAX:
        raise ConfigError(
            f"N_list entries must be <= {sphere.EXACT_LEVEL_MAX}, "
            "the largest level verified for the closed-form pairings"
        )
    hams = p.get("hamiltonians", ["harmonic_real", "zonal_harmonic"])
    if not isinstance(hams, list) or len(hams) != 2:
        raise ConfigError("hamiltonians must name exactly two fields")
    for name in hams:
        if name not in HAMILTONIAN_LIBRARY:
            raise ConfigError(
                f"unknown hamiltonian '{name}' (choices: {sorted(HAMILTONIAN_LIBRARY)})"
            )
    return {
        "N_list": n_list,
        "hamiltonians": hams,
        "ratio_bound": float(p.get("ratio_bound", 0.7)),
        "ratio_min_N": int(p.get("ratio_min_N", 16)),
    }


def _run_sphere(p: dict, _rng) -> tuple[list, list, bool]:
    h1 = HAMILTONIAN_LIBRARY[p["hamiltonians"][0]]()
    h2 = HAMILTONIAN_LIBRARY[p["hamiltonians"][1]]()
    table = sphere.symbol_decay_experiment(h1, h2, p["N_list"])
    columns = ["N", "dim", "eps", "ratio", "trace_lhs", "trace_rhs", "passed"]
    rows = []
    prev = None
    for row in table:
        ratio = row["eps"] / prev["eps"] if prev else math.nan
        ok = True
        if prev and prev["N"] >= p["ratio_min_N"]:
            ok = ratio <= p["ratio_bound"]
        rows.append(
            [row["N"], row["dim"], row["eps"], ratio, row["trace_lhs"], row["trace_rhs"], ok]
        )
        prev = row
    return columns, rows, all(r[-1] for r in rows)


def _check_schrodinger(p: dict) -> dict:
    _require_keys(
        p,
        {"N": True, "dt": True, "t_end": True, "cases": True, "tol_residual": False},
        "schrodinger-intertwine parameters",
    )
    n = int(_positive(p, "N", "schrodinger", int))
    if n > sphere.GRID_LEVEL_MAX:
        raise ConfigError(
            f"schrodinger N must be <= {sphere.GRID_LEVEL_MAX}, "
            "the largest level the quadrature grid resolves"
        )
    dt = _positive(p, "dt", "schrodinger")
    t_end = _positive(p, "t_end", "schrodinger")
    if not 0 < t_end <= 2:
        raise ConfigError("t_end must lie in (0, 2]")
    cases = p["cases"]
    if not isinstance(cases, list) or not cases:
        raise ConfigError("cases must be a nonempty list")
    out_cases = []
    for c in cases:
        _require_keys(c, {"hamiltonian": True, "tol": True}, "schrodinger case")
        if c["hamiltonian"] not in HAMILTONIAN_LIBRARY:
            raise ConfigError(f"unknown hamiltonian '{c['hamiltonian']}'")
        out_cases.append({"hamiltonian": c["hamiltonian"], "tol": float(c["tol"])})
    return {
        "N": n,
        "dt": dt,
        "t_end": t_end,
        "cases": out_cases,
        "tol_residual": float(p.get("tol_residual", 1e-5)),
    }


def _run_schrodinger(p: dict, _rng) -> tuple[list, list, bool]:
    grid = sphere.SphereGrid.for_level(p["N"])
    space = sphere.SectionSpace(p["N"], grid)
    columns = [
        "hamiltonian",
        "N",
        "dt",
        "t_end",
        "intertwine",
        "max_eq_range",
        "max_eq_deriv",
        "tol_intertwine",
        "tol_residual",
        "passed",
    ]
    rows = []
    for case in p["cases"]:
        ham = HAMILTONIAN_LIBRARY[case["hamiltonian"]]()
        res = transport.parallel_transport(ham, space, t_end=p["t_end"], dt=p["dt"])
        inter = transport.intertwine_check(ham, space, result=res)
        residuals = transport.transport_residuals(res, space)
        max_range = max(r["eq_range"] for r in residuals)
        max_deriv = max(r["eq_deriv"] for r in residuals)
        ok = (
            inter <= case["tol"]
            and max_range <= p["tol_residual"]
            and max_deriv <= p["tol_residual"]
        )
        rows.append(
            [
                case["hamiltonian"],
                p["N"],
                p["dt"],
                p["t_end"],
                inter,
                max_range,
                max_deriv,
                case["tol"],
                p["tol_residual"],
                ok,
            ]
        )
    return columns, rows, all(r[-1] for r in rows)


def _check_teichmuller(p: dict) -> dict:
    _require_keys(
        p,
        {"n_tuples": True, "tol_pairing": False, "tol_sp": False, "tol_wp": False},
        "teichmuller-symbol parameters",
    )
    return {
        "n_tuples": int(_positive(p, "n_tuples", "teichmuller", int)),
        "tol_pairing": float(p.get("tol_pairing", 1e-10)),
        "tol_sp": float(p.get("tol_sp", 1e-9)),
        "tol_wp": float(p.get("tol_wp", 1e-12)),
    }


def _run_teichmuller(p: dict, rng: np.random.Generator) -> tuple[list, list, bool]:
    j0 = np.array([[0.0, -1.0], [1.0, 0.0]])
    worst_pair = worst_sp = worst_fact = worst_wp = 0.0
    for _ in range(p["n_tuples"]):
        pt = teichmuller.random_slice_point(rng)
        v1 = rng.standard_normal() + 1j * rng.standard_normal()
        v2 = rng.standard_normal() + 1j * rng.standard_normal()
        u1 = teichmuller.slice_variation(pt, v1)
        u2 = teichmuller.slice_variation(pt, v2)
        lhs = teichmuller.pairing_trace(pt, u1.u, u2.u)
        rhs = teichmuller.pairing_closed_form(pt, v1, v2)
        scale = max(abs(rhs), 1e-8)
        worst_pair = max(worst_pair, abs(lhs - rhs) / scale)

        h = teichmuller.h_matrix(pt)
        worst_sp = max(worst_sp, float(np.max(np.abs(h.T @ j0 @ h - j0))))
        g = teichmuller.metric_matrix(pt)
        fact = pt.sigma * np.linalg.inv(j0) @ h @ j0 @ np.linalg.inv(h)
        worst_fact = max(worst_fact, float(np.max(np.abs(g - fact))))

        flat = teichmuller.SlicePoint(
            sigma=pt.sigma,
            rho0=pt.rho0,
            E0=pt.sigma / (pt.f0 * pt.rho0),
            f0=pt.f0,
            Phi0=0.0,
        )
        w1 = teichmuller.slice_variation(flat, v1)
        w2 = teichmuller.slice_variation(flat, v2)
        wp_lhs = teichmuller.pairing_trace(flat, w1.u, w2.u)
        wp_rhs = teichmuller.wp_integrand(flat.sigma, v1, v2)
        worst_wp = max(worst_wp, abs(wp_lhs - wp_rhs) / max(abs(wp_rhs), 1e-8))

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
    if not isinstance(config, dict):
        raise ConfigError("config root must be an object")
    _require_keys(config, {"seed": True, "experiments": True}, "config root")
    seed = config["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ConfigError("seed must be an integer in [0, 2^64)")
    entries = config["experiments"]
    if not isinstance(entries, list) or not entries:
        raise ConfigError("experiments must be a nonempty list")
    out = []
    for i, entry in enumerate(entries):
        where = f"experiments[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where} must be an object")
        _require_keys(
            entry, {"experiment": True, "parameters": True, "output_path": True}, where
        )
        name = entry["experiment"]
        if name not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment '{name}' (choices: {sorted(EXPERIMENTS)})"
            )
        if not isinstance(entry["output_path"], str) or not entry["output_path"]:
            raise ConfigError(f"{where}.output_path must be a nonempty string")
        checker, _runner = EXPERIMENTS[name]
        params = entry["parameters"]
        if not isinstance(params, dict):
            raise ConfigError(f"{where}.parameters must be an object")
        out.append(
            {
                "experiment": name,
                "parameters": checker(params),
                "output_path": entry["output_path"],
            }
        )
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
