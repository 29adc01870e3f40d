"""Parallel transport along Hamiltonian deformations vs. Schrodinger evolution.

The deformed projector family Pi_t = V_t^{-1} Pi_0 V_t is carried by the flow
pullback V_t, so the transported frame F_t = V_t^{-1} e_k (computed through
characteristics) spans the range of Pi_t at every time.  Writing the parallel
frame as P_t = F_t C_t turns the transport equations

    Pi_t Pdot_t = 0,        Pidot_t P_t = Pdot_t

into a coefficient ODE Cdot = B(t) C with B(t) = (F*F)^{-1} F*(G F), where G
is the full prequantum generator.  Analytically B(t) equals the compressed
generator B_c = `sphere.compress_generator` for time-independent
Hamiltonians, which is exactly the statement that pullback followed by the
Schrodinger propagator IS parallel transport; numerically B(t) is rebuilt
from the flowed frame at every step, so the agreement C_T = S_T is a
measurement, not an assumption.  Every build records its drift
||B(t) - B_c||_F / ||B_c||_F, and the largest is reported.  The reference
S_T = exp(T B_c) is exact to rounding (one eigh of the Hermitian -i B_c,
the same matrix the drift is measured against), so the mismatch
`intertwine_check` reports is the frame transport's own integration error:
O(dt^4) from its RK4 steps.

The RK4 step of C reads B at t_n, t_n + dt/2 and t_n + dt.  The midpoint is
not built: it is the cubic through the builds at steps n - 2 .. n + 1,

    B_(n+1/2) = (B_(n-2) - 5 B_(n-1) + 15 B_n + 5 B_(n+1)) / 16,

whose error -(5/128) dt^4 B'''' keeps the step fourth order for any smooth
B(t), so a step costs one build, not two.  The first two steps have fewer
builds behind them and build their midpoint too.  The points z still move
by two RK4 half steps of dt/2, so every step state, and with it every step
build, is the one a midpoint build would see.  The prefactor is not
integrated: cdot = -q(z) c is linear in c, so c moves to c exp(-int q),
with the integral by Simpson's rule on q at the step's start, midpoint and
end (`sphere.characteristic_step`), states the step evaluates anyway.  So
the RK4 stages evaluate a alone, and c carries no error of its own beyond
Simpson's O(dt^5) a step; an RK4 step of c was the run's largest
integration error (zonal_harmonic at N = 16, t_end = 0.1: gram_defect
5.4e-10, eq_deriv 3.8e-8, where the closed form reads 3.0e-14 and
3.3e-10).

On holomorphic sections the generator acts as G z^k = k a z^(k-1) + q z^k,
with a the flow field and q the phase rate (the identity of the `sphere`
module docstring), so G needs only a and q at the flowed points, which the
characteristic equations already evaluate.  On the rows U_k = c sqrtw z^k of
a state (z, c), G U_k = (q z + k a) U_(k-1), and one sweep,
`SectionSpace.monomial_rows`, writes both.  The norms of the frame
F_k = U_k / ||z^k|| enter only the d x 2d product: [F*F, F*(G F)] is
U*[U, G U] scaled by 1/(||z^j|| ||z^k||), while `frame_at` scales the frames
of the end state and of the residual stencils row by row.

The residual check never orthonormalizes a frame: the projector onto the
range of F_m is F_m G_m^{-1} F_m* with G_m = F_m*F_m.  With P = F_c C_c at a
sample and the stencil derivative d/dt ~ sum_m (w_m/dt) at the steps around
it, one product F_m*[F_m, F_c] per stencil frame gives G_m and X_m = F_m*F_c,
and

    Pidot P - Pdot = sum_m F_m (w_m/dt) (G_m^{-1} X_m C_c - C_m),
    ||Pi Pdot|| = ||L^{-1} sum_m (w_m/dt) X_m* C_m||,   G_c = L L*.

The first is summed on the grid, since its norm is a cancellation down to
~1e-11 that a norm formed from Grams would lose; the second needs d x d
data only.  A frame whose Gram has a non-positive eigenvalue or condition
number above `linalg.GRAM_COND_LIMIT` is refused with a LinAlgError.

The residuals are streamed from one loop over the steps.  A step's state
(z, c, C) is held only if a sample's stencil reads it, and the loop knows
the last sample that does.  The residual of sample j is taken right after
step j + 4, in the moving frame's buffers, which are free between generator
builds, and every state whose last reader is j is then dropped.  A held
state is read by a sample not yet taken, so all lie in the nine steps
around the next one.  One pass forms each [G_m, X_m] with F_c in the G U
rows; a second sums the residual in those rows, rebuilding each F_m.  The
end state's frame F_T and the grid frame F_0, which no `SectionSpace`
keeps, share the same rows, and F_T C - F_0 is summed in the conjugate rows
for `projector_deviation`.  So a run holds three frame-sized buffers (U and
G U, 2d rows, and their conjugate, d rows: 2.8 MB at N = 16, 166 MB at
N = 72) and one stencil's states, ~0.8 MB and ~11 MB, where storing every
sample's took 7.7 MB and 107 MB.  The traced peak of a 100-step run with 10
samples is 4.34 MiB at N = 16 and 181.0 MiB at N = 72 (harmonic_real).

A flow that leaves the chart (a field growing like z^2 at the far pole
carries grid points through it in finite time) overflows; each step runs
under `linalg.in_chart`, which reports that as a `ValueError` naming the
Hamiltonian, the level and the time reached.  The residuals run outside
it, so their own failures surface unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import check_gram_spectrum, in_chart
from .sphere import (
    HamiltonianField,
    SectionSpace,
    characteristic_step,
    compress_generator,
    eval_batch,
    phase_rate,
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

# B at t_n + dt/2 from the cubic through B at steps n - 2, n - 1, n, n + 1:
# exact on cubics, with error -(5/128) dt^4 B'''' for a smooth B(t)
_MIDPOINT_WEIGHTS = (1.0 / 16.0, -5.0 / 16.0, 15.0 / 16.0, 5.0 / 16.0)

# Largest step count round(t_end / dt) a config may ask for.  A step of one
# case at the largest transport level N = 72 costs ~0.11 s (0.107-0.114 s
# measured, 2 vCPU, one BLAS thread), so a case at this bound takes ~9 min
# there; a run's cases share the CPUs, one process each.
TRANSPORT_STEPS_MAX = 5000


@dataclass
class TransportResult:
    """Trajectory data from one parallel-transport integration."""

    ham_name: str
    N: int
    t_end: float
    dt: float
    coeffs: np.ndarray  # C at t_end (moving-frame coefficients)
    schrodinger: np.ndarray  # S at t_end, exact: exp(t_end B_c) from one eigh
    generator: np.ndarray = field(repr=False)  # B at t = 0 (built from the frame)
    gram_end: np.ndarray = field(repr=False)  # F_T^* F_T
    # ||P_T - F_0||_HS / sqrt(dim): the parallel frame P_T = F_T C at t_end
    # against the frame F_0 of the range it started from, zero when transport
    # returns home; summed on the grid, as the same norm taken from Grams, a
    # difference of traces of size dim, could not read below ~1e-8
    projector_deviation: float
    gram_defect: float  # max |F*F - I| over every generator build
    generator_drift: float  # max ||B(t) - B_c||_F / ||B_c||_F over every build
    min_coeff_sv: float  # rank monitor for C
    residuals: list  # one {"t", "eq_range", "eq_deriv"} row per sample time

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    def isometry_defect(self) -> float:
        """Deviation of C* (F*F) C from the identity (norm preservation)."""
        g = self.coeffs.conj().T @ self.gram_end @ self.coeffs
        return float(np.max(np.abs(g - np.eye(self.dim))))


def schrodinger_propagate(generator: np.ndarray, t_end: float) -> np.ndarray:
    """Propagator S_T = exp(T B0) on the holomorphic range, exact to rounding.

    B0 = `generator` is the compressed generator (`compress_generator`), i
    times the Hermitian Schrodinger operator H = -i B0; with
    H = V diag(w) V* from one eigh, S_T = V diag(e^{i T w}) V*.
    """
    w, v = np.linalg.eigh(-1j * generator)
    return (v * np.exp(1j * t_end * w)) @ v.conj().T


class _MovingFrame:
    """Characteristic state and transport coefficients advanced in steps
    (`sphere.characteristic_step`), with the coefficient ODE generator
    rebuilt from the flowed frame at each step state by one sweep of the
    rows U_k and G U_k into buffers owned here (`products`).  A state
    carries the a and q values the step evaluated there, which the build
    reads, so each state is evaluated once."""

    def __init__(self, ham: HamiltonianField, space: SectionSpace, dt: float):
        self.space = space
        self.label = f"transport of {ham.name} at N={space.N}"
        self.dt = dt
        self.fields = (ham.a, phase_rate(ham, space.N))
        n = space.grid.points
        self.state = (n, np.ones_like(n), *eval_batch(self.fields, n))  # (z, c, a, q)
        d = space.dim
        self.coeffs = np.eye(d, dtype=complex)  # C at the current state
        self.builds = ()  # B at the last three steps, the current one last
        self.generator0 = None  # B at t = 0
        # rows 0..d-1: U_k = c sqrtw z^k; rows d..2d-1: G U_k
        self.rows = np.empty((2 * d, len(n)), dtype=complex)
        self.rows_h = np.empty((d, len(n)), dtype=complex)
        self.w = np.empty(len(n), dtype=complex)  # the row w = q z + k a of a sweep
        # entry (j, k) of U*[U, G U] times 1/(||z^j|| ||z^k||): F_k = U_k / ||z^k||
        self.norm_scale = np.outer(1.0 / space.norms, np.tile(1.0 / space.norms, 2))
        self.steps = 0
        self.gram_defect = 0.0
        self.closed_form = compress_generator(ham, space)  # B_c
        # the drift is absolute for a generator B_c = 0
        self.closed_norm = float(np.linalg.norm(self.closed_form)) or 1.0
        self.drift = 0.0

    def advance(self, mid_phase: bool = False) -> tuple:
        """Move the state one step; return the midpoint state, with its c
        only if `mid_phase`."""
        mid, self.state = characteristic_step(
            self.fields, self.state, self.dt, inverse=True, mid_phase=mid_phase
        )
        self.steps += 1
        return mid

    def step(self):
        """One full step: the state by `advance`, and C by one RK4 step of
        Cdot = B C on the generators at its start, middle and end.  The end
        is built; the middle is the cubic through the builds at this step's
        end and the three steps before it, and is built only in the first
        two steps, which have fewer behind them."""
        if not self.builds:
            self.generator0 = self.generator_matrix(self.state)
            self.builds = (self.generator0,)
        first = len(self.builds) < 3
        mid = self.advance(mid_phase=first)
        steps = (*self.builds, self.generator_matrix(self.state))
        if first:
            b_mid = self.generator_matrix(mid)
        else:
            b_mid = sum(w * b for w, b in zip(_MIDPOINT_WEIGHTS, steps))
        b_here, b_next = steps[-2:]
        dt, c_mat = self.dt, self.coeffs
        k1 = b_here @ c_mat
        k2 = b_mid @ (c_mat + 0.5 * dt * k1)
        k3 = b_mid @ (c_mat + 0.5 * dt * k2)
        k4 = b_next @ (c_mat + dt * k3)
        # rebound, never written in place, so a held state keeps its C
        self.coeffs = c_mat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        self.builds = steps[-3:]

    def products(self, state: tuple) -> np.ndarray:
        """[F*F, F*(G F)] at a state (z, c, a, q), from one sweep of its rows."""
        z, c, av, qv = state
        rows = self.space.monomial_rows(z, c, self.rows, av, qv, self.w)
        return (np.conjugate(rows[: self.space.dim], out=self.rows_h) @ rows.T) * self.norm_scale

    def generator_matrix(self, state: tuple) -> np.ndarray:
        """B = (F*F)^{-1} F*(G F) at a state; records the Gram defect and the
        drift from B_c."""
        d = self.space.dim
        both = self.products(state)
        gram = both[:, :d]
        defect = float(np.max(np.abs(gram - np.eye(d))))
        self.gram_defect = max(self.gram_defect, defect)
        b = np.linalg.solve(gram, both[:, d:])
        drift = float(np.linalg.norm(b - self.closed_form)) / self.closed_norm
        self.drift = max(self.drift, drift)
        return b


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
    is the coefficient matrix.  The defining equations are residual-checked
    by `transport_residuals` at `n_samples` interior steps while the
    integration runs, each as soon as its derivative stencil has been
    reached; a step's state is kept only until the last sample that reads
    it is taken.

    Raises ValueError if the flow leaves the chart (overflow or an invalid
    value while integrating), and otherwise np.linalg.LinAlgError, naming the
    Hamiltonian, level and sample time, if a stencil frame is ill-conditioned:
    a residual refusal is raised only once the integration is through.
    """
    n_steps = max(8, round(t_end / dt))
    dt = t_end / n_steps
    frame = _MovingFrame(ham, space, dt)
    offsets = (0, *(m for m, _w in _DERIV_STENCIL))
    reach = max(offsets)
    # n_samples interior steps, spread evenly and moved inwards so that every
    # stencil lies in [0, n_steps]; last_read maps each step a stencil reads
    # to the last sample reading it
    samples = {
        min(max(int(round((j + 1) * n_steps / (n_samples + 1))), reach), n_steps - reach)
        for j in range(n_samples)
    }
    last_read = {j + m: j for j in sorted(samples) for m in offsets}
    held = {0: (*frame.state[:2], frame.coeffs)} if 0 in last_read else {}
    # the frame's buffers are free between builds, so the residuals borrow them
    work = (frame.rows, frame.rows_h)
    residuals, refused = [], None
    for step in range(1, n_steps + 1):
        with in_chart(frame.label, n_steps * dt, lambda: dt * frame.steps):
            frame.step()
        if step in last_read:
            held[step] = (*frame.state[:2], frame.coeffs)
        j = step - reach
        if j not in samples:
            continue
        if refused is None:
            try:
                row = transport_residuals({m: held[j + m] for m in offsets}, space, dt, work)
                residuals.append({"t": j * dt, **row})
            except np.linalg.LinAlgError as exc:
                # a flow leaving the chart later in the run degrades the frames
                # first; that ValueError, if it comes, names the cause
                refused = (j * dt, exc)
        # the states no later sample reads go before the integration resumes
        held = {i: state for i, state in held.items() if last_read[i] != j}
    if refused is not None:
        t, exc = refused
        raise np.linalg.LinAlgError(
            f"transport of {ham.name} at N={space.N}: the frame at t={t:.4g} is refused ({exc})"
        ) from exc
    d = space.dim
    rows = space.frame_at(*frame.state[:2], out=frame.rows[:d]).T  # F_T
    grid = space.frame_at(space.grid.points, 1.0, out=frame.rows[d:]).T  # F_0
    gram_end = np.conjugate(rows, out=frame.rows_h) @ rows.T
    c_mat = frame.coeffs
    # (F_T C - F_0)^T in the conjugate buffer, free again
    moved = np.matmul(c_mat.T, rows, out=frame.rows_h)
    moved -= grid
    return TransportResult(
        ham_name=ham.name,
        N=space.N,
        t_end=t_end,
        dt=dt,
        coeffs=c_mat,
        schrodinger=schrodinger_propagate(frame.closed_form, t_end),
        generator=frame.generator0,
        gram_end=gram_end,
        projector_deviation=float(np.linalg.norm(moved)) / math.sqrt(d),
        gram_defect=frame.gram_defect,
        generator_drift=frame.drift,
        min_coeff_sv=float(np.linalg.svd(c_mat, compute_uv=False)[-1]),
        residuals=residuals,
    )


def intertwine_check(result: TransportResult) -> float:
    """|| P_T - V_T^{-1} S_T ||_HS / sqrt(dim) of a `parallel_transport` result.

    Both operators live on the flowed frame, so the difference reduces to the
    coefficient mismatch measured in the frame Gram metric.
    """
    m = result.coeffs - result.schrodinger
    sq = np.trace(m.conj().T @ result.gram_end @ m).real
    return math.sqrt(max(sq, 0.0)) / math.sqrt(result.dim)


def transport_residuals(stencil: dict, space: SectionSpace, dt: float, work: tuple) -> dict:
    """Residuals of the two defining transport equations at one sample time.

    eq_range: ||Pi_t Pdot_t||_HS / sqrt(dim)   (the transport is horizontal)
    eq_deriv: ||Pidot_t P_t - Pdot_t||_HS / sqrt(dim)

    `stencil` maps 0 and every offset m of the difference stencil to the
    trajectory state (z, c, C) at m steps of `dt` from the sample.  Time
    derivatives of the frame path and the projector family come from those
    states through the high-order stencil, which shares nothing with the
    integrator's update rule.  The residuals are formed from Grams as in the
    module docstring, one stencil frame at a time, in the two scratch arrays
    `work`, complex (2 dim, points) and (dim, points); the second half of the
    first holds the residual.

    Raises ValueError if `space` is not the level and grid of the states,
    and np.linalg.LinAlgError if a frame is ill-conditioned.
    """
    n_points = space.sqrtw.size
    sizes = {z.size for z, _c, _coeff in stencil.values()}
    levels = {coeff.shape[0] - 1 for _z, _c, coeff in stencil.values()}
    if levels != {space.N} or sizes != {n_points}:
        got_n = "/".join(str(n) for n in sorted(levels))
        got = "/".join(str(n) for n in sorted(sizes))
        raise ValueError(
            f"transport_residuals: the states are at level N={got_n} on {got} "
            f"points, the space at level N={space.N} on {n_points} points"
        )
    d = space.dim
    # rows 0..d-1: the stencil frame F_m; rows d..2d-1: the centre frame F_c
    rows, rows_h = work
    z, c, coeff = stencil[0]
    space.frame_at(z, c, out=rows[d:])
    centre, frame_m = rows[d:], rows[:d]  # frames as rows, F^T
    gram_c = np.conjugate(centre, out=rows_h) @ centre.T
    check_gram_spectrum(np.linalg.eigvalsh(gram_c))

    range_sum = np.zeros((d, d), dtype=complex)  # F_c* Pdot
    mixes = []
    for m, w in _DERIV_STENCIL:
        z, c, coeff_m = stencil[m]
        space.frame_at(z, c, out=frame_m)
        both = np.conjugate(frame_m, out=rows_h) @ rows.T  # [G_m, X_m]
        gram_m, cross_m = both[:, :d], both[:, d:]
        check_gram_spectrum(np.linalg.eigvalsh(gram_m))
        range_sum += (w / dt) * (cross_m.conj().T @ coeff_m)
        mixes.append((w / dt) * (np.linalg.solve(gram_m, cross_m @ coeff) - coeff_m))

    # F_c is no longer read, so its rows hold (Pidot P - Pdot)^T, summed in
    # the same m order over each F_m rebuilt in rows[:d]
    resid = centre
    resid.fill(0.0)
    for (m, _w), mix in zip(_DERIV_STENCIL, mixes):
        z, c, _coeff_m = stencil[m]
        resid += np.matmul(mix.T, space.frame_at(z, c, out=frame_m).T, out=rows_h)

    chol = np.linalg.cholesky(gram_c)
    eq_range = np.linalg.norm(np.linalg.solve(chol, range_sum)) / math.sqrt(d)
    eq_deriv = np.linalg.norm(resid) / math.sqrt(d)
    return {"eq_range": float(eq_range), "eq_deriv": float(eq_deriv)}
