import numpy as np
import pytest

from quantcurv import teichmuller
from quantcurv.experiments import _check_teichmuller, _slice_errors
from quantcurv.teichmuller import (
    SlicePoint,
    h_matrix,
    metric_matrix,
    pairing_closed_form,
    pairing_scale,
    pairing_trace,
    random_slice_point,
    slice_variation,
    wp_integrand,
)

_J0 = np.array([[0.0, -1.0], [1.0, 0.0]])


def test_h_matrix_flat_point_is_minus_identity():
    p = SlicePoint(sigma=1.0, rho0=1.0, E0=1.0, f0=1.0, Phi0=0.0)
    assert np.allclose(h_matrix(p), -np.eye(2), atol=1e-14)


def test_h_matrix_is_symplectic():
    rng = np.random.default_rng(17)
    for _ in range(100):
        p = random_slice_point(rng)
        h = h_matrix(p)
        assert np.max(np.abs(h.T @ _J0 @ h - _J0)) < 1e-9
        assert np.linalg.det(h) == pytest.approx(1.0, abs=1e-9)


def test_metric_factorization():
    rng = np.random.default_rng(23)
    for _ in range(100):
        p = random_slice_point(rng)
        g = metric_matrix(p)
        h = h_matrix(p)
        fact = p.sigma * np.linalg.inv(_J0) @ h @ _J0 @ np.linalg.inv(h)
        assert np.max(np.abs(g - fact)) < 1e-9
        # metric is symmetric positive definite
        assert np.max(np.abs(g - g.T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(g)) > 0


def test_pairing_identity_many_tuples():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        p = random_slice_point(rng)
        v1 = rng.standard_normal() + 1j * rng.standard_normal()
        v2 = rng.standard_normal() + 1j * rng.standard_normal()
        pair, _sp, _fact, _wp = _slice_errors(p, v1, v2)
        worst = max(worst, pair)
    assert worst < 1e-10


def test_pairing_antisymmetric_and_bilinear():
    rng = np.random.default_rng(29)
    p = random_slice_point(rng)
    v1 = 1.0 + 2.0j
    v2 = -0.5 + 0.25j
    u1 = slice_variation(p, v1)
    u2 = slice_variation(p, v2)
    ab = pairing_trace(p, u1, u2)
    assert pairing_trace(p, u2, u1) == pytest.approx(-ab, abs=1e-12)
    assert pairing_trace(p, u1, u1) == pytest.approx(0.0, abs=1e-12)
    u3 = slice_variation(p, 2.0 * v2)
    assert pairing_trace(p, u1, u3) == pytest.approx(2.0 * ab, rel=1e-10)


def test_wp_reduction_at_flat_points():
    # at points with Phi0 = 0 and E0 = sigma / (f0 rho0), the pairing reduces
    # to the hyperbolic-density form in the deformation parameters alone
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(500):
        sigma = float(rng.uniform(0.5, 2.0))
        rho0 = float(rng.uniform(0.5, 2.0))
        f0 = float(rng.uniform(0.5, 2.0))
        p = SlicePoint(sigma=sigma, rho0=rho0, E0=sigma / (f0 * rho0), f0=f0, Phi0=0.0)
        v1 = rng.standard_normal() + 1j * rng.standard_normal()
        v2 = rng.standard_normal() + 1j * rng.standard_normal()
        # _slice_errors' flat point of p is p itself, so its wp error is p's
        _pair, _sp, _fact, wp = _slice_errors(p, v1, v2)
        worst = max(worst, wp)
    assert worst < 1e-12


def test_wp_integrand_oracle():
    assert wp_integrand(2.0, 1.0, 1j) == pytest.approx(-8.0 / 4.0 * (-1.0))
    assert wp_integrand(1.0, 1.0 + 0j, 1.0 + 0j) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        wp_integrand(0.0, 1.0, 1.0)


def test_inadmissible_points_rejected():
    with pytest.raises(ValueError):
        SlicePoint(sigma=-1.0, rho0=1.0, E0=1.0, f0=1.0, Phi0=0.0)
    with pytest.raises(ValueError):
        SlicePoint(sigma=1.0, rho0=0.0, E0=1.0, f0=1.0, Phi0=0.0)
    # |Phi0| must stay below the degeneration threshold
    with pytest.raises(ValueError):
        SlicePoint(sigma=1.0, rho0=1.0, E0=1.0, f0=1.0, Phi0=10.0 + 0j)


def test_slice_variation_fields():
    p = SlicePoint(sigma=1.0, rho0=1.0, E0=1.0, f0=1.0, Phi0=0.0)
    u = slice_variation(p, 1.0 + 1.0j)
    assert u.shape == (2, 2)
    # variation matrix is real symmetric
    assert np.max(np.abs(u - u.T)) < 1e-14
    assert np.isrealobj(u)


def _nearly_parallel_tuple():
    # v2 leans 1e-7 rad off v1, so Im(v1 conj(v2)) keeps ~1e-7 of |v1| |v2|
    p = random_slice_point(np.random.default_rng(5))
    v1 = 1.3 + 0.7j
    return p, v1, 0.8 * v1 * (1.0 + 1e-7j)


def _flat(p):
    return SlicePoint(sigma=p.sigma, rho0=p.rho0, E0=p.sigma / (p.f0 * p.rho0), f0=p.f0, Phi0=0.0)


def test_pairing_checks_scale_by_the_pairing_not_its_cancelled_value():
    # measured against |closed form| the trace form's rounding reads
    # 2.5e-10 and 4.9e-10 here, failing both tolerances; against
    # pairing_scale it reads ~1e-17
    p, v1, v2 = _nearly_parallel_tuple()
    tol = _check_teichmuller({"n_tuples": 1})
    flat = _flat(p)
    lhs = pairing_trace(p, slice_variation(p, v1), slice_variation(p, v2))
    rhs = pairing_closed_form(p, v1, v2)
    wp_lhs = pairing_trace(flat, slice_variation(flat, v1), slice_variation(flat, v2))
    wp_rhs = wp_integrand(flat.sigma, v1, v2)
    assert abs(lhs - rhs) / max(abs(rhs), 1e-8) > tol["tol_pairing"]
    assert abs(wp_lhs - wp_rhs) / max(abs(wp_rhs), 1e-8) > tol["tol_wp"]
    pair, _sp, _fact, wp = _slice_errors(p, v1, v2)
    assert pair <= tol["tol_pairing"]
    assert wp <= tol["tol_wp"]
    # at a flat point the scale is that of wp_integrand, 8 |v1| |v2| / sigma^2
    assert pairing_scale(flat, v1, v2) == pytest.approx(8.0 * abs(v1 * v2) / p.sigma**2, rel=1e-14)


def test_pairing_off_by_a_part_in_1e9_of_its_scale_still_fails(monkeypatch):
    p, v1, v2 = _nearly_parallel_tuple()
    tol = _check_teichmuller({"n_tuples": 1})
    exact = teichmuller.pairing_trace

    def off(point, u1, u2):
        return exact(point, u1, u2) + 1e-9 * pairing_scale(point, v1, v2)

    monkeypatch.setattr(teichmuller, "pairing_trace", off)
    pair, _sp, _fact, wp = _slice_errors(p, v1, v2)
    assert pair == pytest.approx(1e-9, rel=1e-3) and pair > tol["tol_pairing"]
    assert wp == pytest.approx(1e-9, rel=1e-3) and wp > tol["tol_wp"]
