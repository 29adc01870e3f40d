"""Dense linear-algebra and ODE helpers shared by the other modules.

Everything here works on plain complex numpy arrays.  Operators that act on
function spaces sampled on a grid are represented in "half-weighted"
coordinates: a section s is stored as sqrt(w) * s(points),
so the weighted L2 pairing becomes the ordinary complex dot product and
adjoints/Hermiticity checks are the plain matrix ones.

Both grid routes that project onto a flowed frame F, `sphere.curvature_fd`
and `transport.transport_residuals`, flow it by `OdeStepper.step` and use
F G^{-1} F* with the Gram G = F*F, refused by `check_gram_spectrum`.
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


@dataclass(frozen=True)
class OdeStepper:
    """Classical fourth-order Runge-Kutta integrator with a fixed step.

    The right-hand side y -> rhs(y) of an autonomous system is supplied per
    call; state may be any ndarray.  Local error is O(dt^5), so a unit-time
    integration carries a global O(dt^4) error with a problem-dependent
    constant (about |c|^5/120 for the scalar test equation y' = c y).
    """

    dt: float

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    def step(self, rhs, y: np.ndarray, k1: np.ndarray | None = None) -> np.ndarray:
        """One RK4 step from y of the autonomous system y' = rhs(y); `k1`, if
        given, is rhs(y) already known."""
        dt = self.dt
        if k1 is None:
            k1 = rhs(y)
        k2 = rhs(y + (dt / 2.0) * k1)
        k3 = rhs(y + (dt / 2.0) * k2)
        k4 = rhs(y + dt * k3)
        return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
