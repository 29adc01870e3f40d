import numpy as np
import pytest

from quantcurv.linalg import OdeStepper, check_gram_spectrum
from curvature_oracle import compressed_curvature
from transport_oracle import orthonormal_columns


def _flow(rhs, y, dt, t_end=1.0):
    """y after round(t_end / dt) steps of `dt`."""
    stepper = OdeStepper(dt)
    for _ in range(round(t_end / dt)):
        y = stepper.step(rhs, y)
    return y


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


@pytest.mark.parametrize(
    "evals", [[np.nan, np.nan], [1.0, np.nan, 2.0], [np.inf, np.inf], [1.0, np.inf], [-np.inf, 1.0]]
)
def test_gram_spectrum_refuses_non_finite_eigenvalues(evals):
    # a NaN is neither <= 0 nor above the condition limit, and inf / inf is
    # NaN, so only a finiteness check refuses these
    with pytest.raises(np.linalg.LinAlgError, match="ill-conditioned"):
        check_gram_spectrum(np.array(evals))


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
        y = _flow(lambda y: c * y, np.array(1.0 + 0j), dt)
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
    y1 = _flow(lambda y: 1j * (h @ y), y0, dt)
    assert abs(np.linalg.norm(y1) - 1.0) <= 10.0 * dt**4


def test_ode_stepper_fourth_order():
    exact = np.exp(2.0)
    errs = []
    for dt in (2e-2, 1e-2):
        y = _flow(lambda y: 2.0 * y, np.array(1.0 + 0j), dt)
        errs.append(abs(y - exact))
    assert errs[0] / errs[1] > 12.0  # O(dt^4): halving dt should cut error ~16x


def test_ode_stepper_known_first_stage():
    # a first stage passed in replaces the rhs call at y, bit for bit
    h = np.array([[0.3, 1.0 - 0.5j], [1.0 + 0.5j, -0.7]])
    y = np.array([[1.0 + 0.2j, 0.1], [-0.4j, 2.0]])
    calls = []

    def rhs(v):
        calls.append(v)
        return 1j * (h @ v) - 0.3 * v

    stepper = OdeStepper(0.05)
    expect = stepper.step(rhs, y)
    k1 = rhs(y)
    calls.clear()
    got = stepper.step(rhs, y, k1=k1)
    assert np.array_equal(got, expect)
    assert len(calls) == 3


def test_ode_stepper_rejects_bad_args():
    with pytest.raises(ValueError):
        OdeStepper(0.0)
    with pytest.raises(ValueError):
        OdeStepper(-0.1)
