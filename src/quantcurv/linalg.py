"""Dense linear-algebra and ODE helpers shared by the other modules.

Everything here works on plain complex numpy arrays.  Operators that act on
function spaces sampled on a grid are represented in "half-weighted"
coordinates: a section s is stored as sqrt(w) * s(points),
so the weighted L2 pairing becomes the ordinary complex dot product and
adjoints/Hermiticity checks are the plain matrix ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# Largest Gram condition number a frame may have before it is refused.
GRAM_COND_LIMIT = 1e8


def check_gram_spectrum(evals: np.ndarray) -> None:
    """Refuse a frame whose Gram eigenvalues (ascending) are not all positive
    or spread by more than `GRAM_COND_LIMIT`: raises `np.linalg.LinAlgError`."""
    if evals[0] <= 0 or evals[-1] / evals[0] > GRAM_COND_LIMIT:
        raise np.linalg.LinAlgError(
            f"frame Gram matrix is ill-conditioned: smallest eigenvalue {evals[0]:.3e}, "
            f"largest {evals[-1]:.3e}"
        )


def orthonormal_columns(frame: np.ndarray) -> np.ndarray:
    """Orthonormalize frame columns by the inverse square root of their Gram matrix.

    Parameters
    ----------
    frame : (npoints, k) complex array
        Columns are vectors in half-weighted grid coordinates (plain l2
        pairing applies).

    Returns
    -------
    (npoints, k) array with orthonormal columns spanning the same space.

    Notes
    -----
    Symmetric (Loewdin) orthonormalization keeps the result as close as
    possible to the input frame, which matters when the input is already
    nearly orthonormal and we want a stable, basis-respecting projector.
    """
    frame = np.asarray(frame)
    gram = frame.conj().T @ frame
    evals, evecs = np.linalg.eigh(gram)
    check_gram_spectrum(evals)
    inv_sqrt = (evecs * (1.0 / np.sqrt(evals))) @ evecs.conj().T
    return frame @ inv_sqrt


@dataclass(frozen=True)
class OdeStepper:
    """Classical fourth-order Runge-Kutta integrator with a fixed step.

    The right-hand side is supplied per call; state may be any ndarray.
    Local error is O(dt^5), so a unit-time integration carries a global
    O(dt^4) error with a problem-dependent constant (about |c|^5/120 for
    the scalar test equation y' = c y).
    """

    dt: float

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    def step(
        self, rhs, t: float, y: np.ndarray, k1: np.ndarray | None = None
    ) -> np.ndarray:
        """One RK4 step from (t, y); `k1`, if given, is rhs(t, y) already known."""
        dt = self.dt
        if k1 is None:
            k1 = rhs(t, y)
        k2 = rhs(t + dt / 2.0, y + (dt / 2.0) * k1)
        k3 = rhs(t + dt / 2.0, y + (dt / 2.0) * k2)
        k4 = rhs(t + dt, y + dt * k3)
        return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def propagate(self, rhs, t0: float, y0: np.ndarray, t1: float) -> np.ndarray:
        """Integrate from t0 to t1 with steps of size dt (last step shortened)."""
        if t1 < t0:
            raise ValueError("propagate integrates forward: need t1 >= t0")
        y = np.asarray(y0, dtype=complex)
        nfull, rem = divmod(t1 - t0, self.dt)
        t = t0
        for _ in range(int(round(nfull))):
            y = self.step(rhs, t, y)
            t += self.dt
        if rem > 1e-15 * max(1.0, abs(t1)):
            short = OdeStepper(rem)
            y = short.step(rhs, t, y)
        return y
