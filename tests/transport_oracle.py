"""Oracles for the streamed residuals of `quantcurv.transport`.

`transport_residuals_reference` forms the residuals from Loewdin-
orthonormalized frames, as an oracle for the Gram form of
`transport_residuals`: every stencil frame is orthonormalized, and the
projected derivative Q_m Q_m* P_c and the frame-path derivative are summed on
the grid.

`stencil_states` is the store-everything route: it integrates the whole
path first, keeping the state (z, c, C) of every step, and only then cuts
each sample's stencil from the stored states.  `stored_residuals` forms
each sample's residual from those stencils with the Gram formulas, as an
oracle for the bookkeeping of the streamed route in `parallel_transport`;
tests that edit a state before the residual is formed take the stencils
themselves, and `residual_work` the scratch arrays `transport_residuals`
forms it in.

`orthonormal_columns` is the Loewdin orthonormalization those oracle
frames go through.
"""

import math

import numpy as np

from quantcurv.linalg import check_gram_spectrum
from quantcurv.transport import _DERIV_STENCIL, _MovingFrame


def orthonormal_columns(frame: np.ndarray) -> np.ndarray:
    """Columns spanning the range of `frame`, orthonormalized by the inverse
    square root of its Gram matrix (symmetric, or Loewdin, orthonormalization:
    the orthonormal frame nearest the input).  Raises np.linalg.LinAlgError
    for a Gram refused by `check_gram_spectrum`."""
    frame = np.asarray(frame)
    evals, evecs = np.linalg.eigh(frame.conj().T @ frame)
    check_gram_spectrum(evals)
    inv_sqrt = (evecs * (1.0 / np.sqrt(evals))) @ evecs.conj().T
    return frame @ inv_sqrt


def stencil_states(ham, space, t_end, dt, n_samples):
    """(dt, [(j, stencil), ...]) of a transport run, one entry per sample
    step j in ascending order, stencil mapping 0 and each offset m of the
    derivative stencil to the state (z, c, C) at step j + m."""
    n_steps = max(8, round(t_end / dt))
    dt = t_end / n_steps
    frame = _MovingFrame(ham, space, dt)
    snapshots = {0: (*frame.state[:2], frame.coeffs)}
    with np.errstate(over="raise", invalid="raise"):
        for i in range(1, n_steps + 1):
            frame.step()
            snapshots[i] = (*frame.state[:2], frame.coeffs)
    samples = sorted(
        {
            min(max(int(round((j + 1) * n_steps / (n_samples + 1))), 4), n_steps - 4)
            for j in range(n_samples)
        }
    )
    offsets = (0, *(m for m, _w in _DERIV_STENCIL))
    return dt, [(j, {m: snapshots[j + m] for m in offsets}) for j in samples]


def residual_work(space):
    """Fresh scratch arrays for `transport_residuals` on `space`."""
    d, n_points = space.dim, space.sqrtw.size
    return tuple(np.empty((rows, n_points), dtype=complex) for rows in (2 * d, d))


def transport_residuals_reference(stencil, space, dt) -> dict:
    """eq_range = ||Pi Pdot|| and eq_deriv = ||Pidot P - Pdot||, over sqrt(dim)."""
    z, c, coeff = stencil[0]
    d = coeff.shape[0]
    frame = space.frame_at(z, c)
    q_center = orthonormal_columns(frame)
    p_center = frame @ coeff

    pdot = np.zeros_like(p_center)
    pidot_p = np.zeros_like(p_center)
    for m, w in _DERIV_STENCIL:
        z, c, coeff = stencil[m]
        frame = space.frame_at(z, c)
        pdot += (w / dt) * (frame @ coeff)
        qm = orthonormal_columns(frame)
        pidot_p += (w / dt) * (qm @ (qm.conj().T @ p_center))

    eq_range = np.linalg.norm(q_center.conj().T @ pdot) / math.sqrt(d)
    eq_deriv = np.linalg.norm(pidot_p - pdot) / math.sqrt(d)
    return {"eq_range": float(eq_range), "eq_deriv": float(eq_deriv)}


def stored_residuals(ham, space, t_end, dt, n_samples) -> list[dict]:
    """The residual rows of a transport run, from a stored copy of every step."""
    dt, stencils = stencil_states(ham, space, t_end, dt, n_samples)
    d = space.dim
    n_points = space.sqrtw.size
    rows = np.empty((2 * d, n_points), dtype=complex)
    rows_h = np.empty((d, n_points), dtype=complex)
    term = np.empty((d, n_points), dtype=complex)
    out = []
    for j, states in stencils:
        z, c, coeff = states[0]
        space.frame_at(z, c, out=rows[d:])
        centre, stencil = rows[d:], rows[:d]
        gram_c = np.conjugate(centre, out=rows_h) @ centre.T
        check_gram_spectrum(np.linalg.eigvalsh(gram_c))

        resid = np.zeros((d, n_points), dtype=complex)
        range_sum = np.zeros((d, d), dtype=complex)
        for m, w in _DERIV_STENCIL:
            z, c, coeff_m = states[m]
            space.frame_at(z, c, out=stencil)
            both = np.conjugate(stencil, out=rows_h) @ rows.T
            gram_m, cross_m = both[:, :d], both[:, d:]
            check_gram_spectrum(np.linalg.eigvalsh(gram_m))
            range_sum += (w / dt) * (cross_m.conj().T @ coeff_m)
            mix = (w / dt) * (np.linalg.solve(gram_m, cross_m @ coeff) - coeff_m)
            resid += np.matmul(mix.T, stencil, out=term)

        chol = np.linalg.cholesky(gram_c)
        eq_range = np.linalg.norm(np.linalg.solve(chol, range_sum)) / math.sqrt(d)
        eq_deriv = np.linalg.norm(resid) / math.sqrt(d)
        out.append({"t": j * dt, "eq_range": float(eq_range), "eq_deriv": float(eq_deriv)})
    return out
