import numpy as np
import pytest

from quantcurv.linalg import OdeStepper, orthonormal_columns
from curvature_oracle import compressed_curvature


def test_projector_from_frame_single_vector():
    frame = np.array([[2.0], [0.0], [0.0]])
    u = orthonormal_columns(frame)
    expect = np.array([[1.0], [0.0], [0.0]])
    assert np.max(np.abs(u - expect)) < 1e-14


def test_projector_from_frame_orthonormal_input_is_fixed():
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    u = orthonormal_columns(q)
    assert np.max(np.abs(u - q)) < 1e-12
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-13


def test_projector_random_frame():
    rng = np.random.default_rng(3)
    frame = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    u = orthonormal_columns(frame)
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-13
    # same span: projecting onto the columns of u leaves the frame fixed
    assert np.max(np.abs(u @ (u.conj().T @ frame) - frame)) < 1e-12


def test_projector_rank_deficient_frame_rejected():
    frame = np.ones((5, 2))
    with pytest.raises(np.linalg.LinAlgError):
        orthonormal_columns(frame)


@pytest.mark.parametrize("n", [4, 2])
def test_compressed_curvature_matches_dense_formula(n):
    # ambient C^6 with the range of Pi the first four coordinates
    rng = np.random.default_rng(17)
    a1, a2 = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) for _ in range(2))
    p = np.diag([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    expect = p @ (a2 @ a1 - a1 @ a2) @ p - (
        (p @ a2 @ p) @ (p @ a1 @ p) - (p @ a1 @ p) @ (p @ a2 @ p)
    )
    basis = list(np.eye(6)[:4])
    got = compressed_curvature(
        basis,
        lambda x: a1 @ x,
        lambda x: a2 @ x,
        lambda images: np.column_stack(images)[:4],
        n,
    )
    assert got.shape == (4, n)
    assert np.max(np.abs(got - expect[:4, :n])) < 1e-12


def test_ode_stepper_scalar_growth():
    # global RK4 error for y' = c y over unit time is about (c^5/120) dt^4
    dt = 1e-2
    for c, bound in [(4.0, 10.0), (5.0, 27.0)]:
        y = OdeStepper(dt).propagate(lambda t, y: c * y, 0.0, np.array(1.0 + 0j), 1.0)
        rel = abs(y - np.exp(c)) / np.exp(c)
        assert rel <= bound * dt**4


def test_ode_stepper_norm_preservation():
    # y' = iHy with Hermitian H preserves the norm up to the integrator error
    rng = np.random.default_rng(5)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + h.conj().T) / 2.0
    h *= 2.0 / np.linalg.norm(h, 2)
    y0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    y0 /= np.linalg.norm(y0)
    dt = 1e-2
    y1 = OdeStepper(dt).propagate(lambda t, y: 1j * (h @ y), 0.0, y0, 1.0)
    assert abs(np.linalg.norm(y1) - 1.0) <= 10.0 * dt**4


def test_ode_stepper_fourth_order():
    exact = np.exp(2.0)
    errs = []
    for dt in (2e-2, 1e-2):
        y = OdeStepper(dt).propagate(lambda t, y: 2.0 * y, 0.0, np.array(1.0 + 0j), 1.0)
        errs.append(abs(y - exact))
    assert errs[0] / errs[1] > 12.0  # O(dt^4): halving dt should cut error ~16x


def test_ode_stepper_partial_last_step():
    # t1 - t0 not a multiple of dt exercises the shortened last step
    y = OdeStepper(0.3).propagate(lambda t, y: y, 0.0, np.array(1.0 + 0j), 1.0)
    assert abs(y - np.e) < 1e-3


def test_ode_stepper_known_first_stage():
    # a first stage passed in replaces the rhs call at (t, y), bit for bit
    h = np.array([[0.3, 1.0 - 0.5j], [1.0 + 0.5j, -0.7]])
    y = np.array([[1.0 + 0.2j, 0.1], [-0.4j, 2.0]])
    calls = []

    def rhs(t, v):
        calls.append(t)
        return 1j * (h @ v) + t * v

    stepper = OdeStepper(0.05)
    expect = stepper.step(rhs, 0.3, y)
    k1 = rhs(0.3, y)
    calls.clear()
    got = stepper.step(rhs, 0.3, y, k1=k1)
    assert np.array_equal(got, expect)
    assert len(calls) == 3


def test_ode_stepper_rejects_bad_args():
    with pytest.raises(ValueError):
        OdeStepper(0.0)
    with pytest.raises(ValueError):
        OdeStepper(0.1).propagate(lambda t, y: y, 1.0, np.array(1.0), 0.0)
