"""The transport residuals from Loewdin-orthonormalized frames, as an oracle
for the Gram form of `quantcurv.transport.transport_residuals`.

Every stencil frame is orthonormalized, and the projected derivative
Q_m Q_m* P_c and the frame-path derivative are summed on the grid.
"""

import math

import numpy as np

from quantcurv.linalg import orthonormal_columns
from quantcurv.transport import _DERIV_STENCIL


def transport_residuals_reference(result, space) -> list[dict]:
    """eq_range = ||Pi Pdot|| and eq_deriv = ||Pidot P - Pdot||, over sqrt(dim)."""
    d = result.dim
    dt = result.dt
    out = []
    for j in result.sample_steps:
        z, c, coeff = result.snapshots[j]
        frame = space.frame_at(z, c)
        q_center = orthonormal_columns(frame)
        p_center = frame @ coeff

        pdot = np.zeros_like(p_center)
        pidot_p = np.zeros_like(p_center)
        for m, w in _DERIV_STENCIL:
            z, c, coeff = result.snapshots[j + m]
            frame = space.frame_at(z, c)
            pdot += (w / dt) * (frame @ coeff)
            qm = orthonormal_columns(frame)
            pidot_p += (w / dt) * (qm @ (qm.conj().T @ p_center))

        eq_range = np.linalg.norm(q_center.conj().T @ pdot) / math.sqrt(d)
        eq_deriv = np.linalg.norm(pidot_p - pdot) / math.sqrt(d)
        out.append({"t": j * dt, "eq_range": float(eq_range), "eq_deriv": float(eq_deriv)})
    return out
