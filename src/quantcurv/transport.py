"""Parallel transport along Hamiltonian deformations vs. Schrodinger evolution.

The deformed projector family Pi_t = V_t^{-1} Pi_0 V_t is carried by the flow
pullback V_t, so the transported frame F_t = V_t^{-1} e_k (computed through
characteristics) spans the range of Pi_t at every time.  Writing the parallel
frame as P_t = F_t C_t turns the transport equations

    Pi_t Pdot_t = 0,        Pidot_t P_t = Pdot_t

into a coefficient ODE Cdot = B(t) C with B(t) = (F*F)^{-1} F*(G F), where G
is the full prequantum generator.  Analytically B(t) equals the compressed
generator at t = 0 for time-independent Hamiltonians, which is exactly the
statement that pullback followed by the Schrodinger propagator IS parallel
transport; numerically B(t) is rebuilt from the flowed frames at every stage,
so the agreement C_T = S_T is a measurement, not an assumption.

On holomorphic sections the generator acts as G z^k = k a z^(k-1) + q z^k,
with a the flow field and q the phase rate (the identity of the `sphere`
module docstring).  So G F needs only a and q at the flowed points, the
two functions the characteristic equations already evaluate.  The rows of
G F are q F_k + k (||z^(k-1)|| / ||z^k||) a F_(k-1), written next to the
frame rows, so the Gram F*F and F*(G F) come out of one product F*[F, G F].

Every frame F_t, at each generator build, at the end state and at the
residual snapshots, is built from a characteristic state (z, c) by
`SectionSpace.frame_at`, the one frame builder of the grid path.

A flow that leaves the chart (a field growing like z^2 at the far pole
carries grid points through it in finite time) overflows; the integration
runs under `np.errstate(over="raise", invalid="raise")` and reports that as
a `ValueError` naming the Hamiltonian, the level and the time reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import OdeStepper, orthonormal_columns
from .sphere import (
    HamiltonianField,
    SectionSpace,
    _phase_rate,
    characteristic_rhs,
    compress_generator,
    eval_batch,
)

__all__ = [
    "TRANSPORT_STEPS_MAX",
    "TransportResult",
    "schrodinger_propagate",
    "parallel_transport",
    "intertwine_check",
    "transport_residuals",
]

# central-difference weights (m, w_m) with O(h^6) Richardson elimination:
# f'(t) ~ sum w_m f(t + m h) / h over m in {+-1, +-2, +-4}
_DERIV_STENCIL = (
    (1, 32.0 / 45.0),
    (-1, -32.0 / 45.0),
    (2, -1.0 / 9.0),
    (-2, 1.0 / 9.0),
    (4, 1.0 / 360.0),
    (-4, -1.0 / 360.0),
)

# Largest step count round(t_end / dt) a config may ask for.  A step at the
# largest transport level N = 72 costs ~0.4 s (0.36-0.44 s measured, 2 vCPU,
# one BLAS thread), so a run at this bound takes ~33 min there.
TRANSPORT_STEPS_MAX = 5000


@dataclass
class TransportResult:
    """Trajectory data from one parallel-transport integration."""

    ham_name: str
    N: int
    t_end: float
    dt: float
    coeffs: np.ndarray  # C at t_end (moving-frame coefficients)
    schrodinger: np.ndarray  # S at t_end, same step size
    generator: np.ndarray = field(repr=False)  # B at t = 0 (compressed)
    gram_end: np.ndarray = field(repr=False)  # F_T^* F_T
    cross_end: np.ndarray = field(repr=False)  # F_0^* F_T
    gram_defect: float  # max |F*F - I| over every generator build
    min_coeff_sv: float  # rank monitor for C
    sample_steps: tuple = ()  # centre steps of the residual stencils
    snapshots: dict = field(default_factory=dict, repr=False)  # step -> (z, c, C)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    def projector_deviation(self) -> float:
        """||P_T - Pi_0||_HS / sqrt(dim): zero when transport returns home."""
        c = self.coeffs
        sq = (
            np.trace(c.conj().T @ self.gram_end @ c).real
            - 2.0 * np.trace(self.cross_end @ c).real
            + self.dim
        )
        return math.sqrt(max(sq, 0.0)) / math.sqrt(self.dim)

    def isometry_defect(self) -> float:
        """Deviation of C* (F*F) C from the identity (norm preservation)."""
        g = self.coeffs.conj().T @ self.gram_end @ self.coeffs
        return float(np.max(np.abs(g - np.eye(self.dim))))


def schrodinger_propagate(
    ham: HamiltonianField, space: SectionSpace, t_end: float, dt: float = 1e-3
) -> np.ndarray:
    """Propagator S_T on the holomorphic range from Sdot = B0 S, S_0 = I.

    B0 is the compressed generator (i times the Hermitian Schrodinger
    operator); a unitary matrix up to integration error.
    """
    b0 = compress_generator(ham, space)
    n_steps = max(1, round(t_end / dt))
    stepper = OdeStepper(dt=t_end / n_steps)
    return stepper.propagate(
        lambda _t, s: b0 @ s, 0.0, np.eye(space.dim, dtype=complex), t_end
    )


class _MovingFrame:
    """Characteristic state advanced in half steps, with the coefficient ODE
    generator rebuilt from the flowed frame on demand.

    The frame rows with the rows of G F below them, and the conjugate frame
    rows, live in two buffers owned here (with one row of scratch) and
    rewritten at every build, and the a and q values of a build are handed
    to the next half step as its first RK4 stage, so each state is
    evaluated once."""

    def __init__(self, ham: HamiltonianField, space: SectionSpace, dt: float):
        self.space = space
        self.a = ham.a
        self.q = _phase_rate(ham, space.N)
        self.rhs = characteristic_rhs(ham, space.N, inverse=True)
        self.stepper = OdeStepper(dt=0.5 * dt)
        n = space.grid.points
        self.state = np.stack(
            [n.astype(complex), np.ones(len(n), dtype=complex)]
        )
        d = space.dim
        # rows 0..d-1: the frame F; rows d..2d-1: G F
        self.rows = np.empty((2 * d, len(n)), dtype=complex)
        self.rows_h = np.empty((d, len(n)), dtype=complex)
        self.shifted = np.empty(len(n), dtype=complex)  # one row of a F_(k-1)
        self.k1 = None  # self.rhs at self.state, once a build has evaluated it
        k = np.arange(1, space.dim)
        # G e_k = k a (||z^(k-1)|| / ||z^k||) e_(k-1) + q e_k on the frame
        self.shift_scale = k * space.norms[:-1] / space.norms[1:]
        self.half_index = 0
        self.gram_defect = 0.0

    def advance_half(self):
        self.state = self.stepper.step(self.rhs, 0.0, self.state, k1=self.k1)
        self.k1 = None
        self.half_index += 1

    def frame_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Frame rows at the current state and their conjugate, in the buffers."""
        rows = self.space.frame_at(*self.state, out=self.rows[: self.space.dim]).T
        return rows, np.conjugate(rows, out=self.rows_h)

    def generator_matrix(self) -> np.ndarray:
        """B = (F*F)^{-1} F*(G F) at the current state; records the Gram defect."""
        z, c = self.state
        rows, rows_h = self.frame_rows()
        av, qv = eval_batch([self.a, self.q], z)
        # characteristic_rhs(inverse=True) at this state
        self.k1 = np.stack([-av, -qv * c])
        d = self.space.dim
        g_rows, shifted = self.rows[d:], self.shifted
        np.multiply(rows, qv, out=g_rows)
        for k in range(1, d):
            np.multiply(rows[k - 1], av, out=shifted)
            shifted *= self.shift_scale[k - 1]
            g_rows[k] += shifted
        both = rows_h @ self.rows.T  # [F*F, F*(G F)]
        gram = both[:, :d]
        defect = float(np.max(np.abs(gram - np.eye(d))))
        self.gram_defect = max(self.gram_defect, defect)
        return np.linalg.solve(gram, both[:, d:])


def parallel_transport(
    ham: HamiltonianField,
    space: SectionSpace,
    t_end: float = 1.0,
    dt: float = 1e-3,
    n_samples: int = 10,
) -> TransportResult:
    """Integrate the transport frame over [0, t_end] along the pullback family.

    The parallel frame is parametrized on the flowed basis, which keeps the
    range condition Pi_t P_t = P_t exact by construction; what is integrated
    is the coefficient matrix.  The state and coefficients at `n_samples`
    interior steps, and at the derivative stencil around each, are kept in
    `snapshots` so the defining equations can be residual-checked afterwards
    by `transport_residuals`; no other step is stored.

    Raises ValueError if the flow leaves the chart (overflow or an invalid
    value while integrating).
    """
    d = space.dim
    n_steps = max(8, round(t_end / dt))
    dt = t_end / n_steps
    frame = _MovingFrame(ham, space, dt)

    # keep the difference stencil inside [0, n_steps]
    samples = sorted(
        {
            min(max(int(round((j + 1) * n_steps / (n_samples + 1))), 4), n_steps - 4)
            for j in range(n_samples)
        }
    )
    snap_steps = set(samples)
    snap_steps.update(j + m for j in samples for m, _w in _DERIV_STENCIL)
    # the stepper replaces the state and c_mat is rebound, never written in
    # place, so a snapshot can hold the arrays themselves
    snapshots = {}

    c_mat = np.eye(d, dtype=complex)
    try:
        with np.errstate(over="raise", invalid="raise"):
            if 0 in snap_steps:
                snapshots[0] = (*frame.state, c_mat)
            b_here = frame.generator_matrix()
            b0 = b_here.copy()
            for i in range(1, n_steps + 1):
                frame.advance_half()
                b_mid = frame.generator_matrix()
                frame.advance_half()
                b_next = frame.generator_matrix()
                k1 = b_here @ c_mat
                k2 = b_mid @ (c_mat + 0.5 * dt * k1)
                k3 = b_mid @ (c_mat + 0.5 * dt * k2)
                k4 = b_next @ (c_mat + dt * k3)
                c_mat = c_mat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if i in snap_steps:
                    snapshots[i] = (*frame.state, c_mat)
                b_here = b_next
            rows, rows_h = frame.frame_rows()
            gram_end = rows_h @ rows.T
            cross_end = np.conjugate(space.frame.T, out=rows_h) @ rows.T
            min_coeff_sv = float(np.linalg.svd(c_mat, compute_uv=False)[-1])
    except FloatingPointError as exc:
        t_reached = 0.5 * dt * frame.half_index
        raise ValueError(
            f"transport of {ham.name} at N={space.N}: the flow left the chart "
            f"after t={t_reached:.4g} of t_end={t_end:g} ({exc})"
        ) from exc

    s_mat = schrodinger_propagate(ham, space, t_end, dt)
    return TransportResult(
        ham_name=ham.name,
        N=space.N,
        t_end=t_end,
        dt=dt,
        coeffs=c_mat,
        schrodinger=s_mat,
        generator=b0,
        gram_end=gram_end,
        cross_end=cross_end,
        gram_defect=frame.gram_defect,
        min_coeff_sv=min_coeff_sv,
        sample_steps=tuple(samples),
        snapshots=snapshots,
    )


def intertwine_check(result: TransportResult) -> float:
    """|| P_T - V_T^{-1} S_T ||_HS / sqrt(dim) of a `parallel_transport` result.

    Both operators live on the flowed frame, so the difference reduces to the
    coefficient mismatch measured in the frame Gram metric.
    """
    m = result.coeffs - result.schrodinger
    sq = np.trace(m.conj().T @ result.gram_end @ m).real
    return math.sqrt(max(sq, 0.0)) / math.sqrt(result.dim)


def transport_residuals(
    result: TransportResult, space: SectionSpace
) -> list[dict]:
    """Residuals of the two defining transport equations at the sample times.

    eq_range: ||Pi_t Pdot_t||_HS / sqrt(dim)   (the transport is horizontal)
    eq_deriv: ||Pidot_t P_t - Pdot_t||_HS / sqrt(dim)

    Time derivatives of the frame path and the projector family come from the
    stored trajectory states through the high-order difference stencil, which
    shares nothing with the integrator's update rule.
    """
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
        out.append(
            {
                "t": j * dt,
                "eq_range": float(eq_range),
                "eq_deriv": float(eq_deriv),
            }
        )
    return out
