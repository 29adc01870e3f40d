"""Berezin-Toeplitz quantization of the sphere in a single affine chart.

Level-N sections are polynomials of degree <= N in the chart coordinate z,
carried with the fiber weight (1+|z|^2)^{-N}; the ambient inner product uses
the area measure dmu = dx dy / (1+|z|^2)^2 (total mass pi).  The weight
prequantizes the form omega = 2 dmu with the pairing i_xi omega = -dH, which
fixes the flow coefficient of a Hamiltonian H at a = i (1+|z|^2)^2 dH/dzbar
and the generator of the lifted flow at

    G = nabla_xi + i N H,     nabla_dz = d/dz - N zbar/(1+|z|^2).

For H = p/(1+|z|^2)^m the derivative dH/dzbar lies over (1+|z|^2)^(m+1), so a
is stored over (1+|z|^2)^(m-1) with no (1+|z|^2)^2 factor to carry.

So G = xi + q with xi = a d/dz + conj(a) d/dzbar and the phase rate
q = -N a zbar/(1+|z|^2) + i N h.  On holomorphic sections G acts as

    G z^k = k a z^(k-1) + q z^k.

Compressed onto the sections, this is a Toeplitz operator T_f s = Pi(f s).
For holomorphic s and t, integrating conj(t) a ds/dz against
(1+|z|^2)^(-N-2) dx dy by parts in z (conj(t) is antiholomorphic) gives

    Pi(a ds/dz) = T_{(N+2) a zbar/(1+|z|^2) - da/dz} s,

so Pi G Pi = T_{2 a zbar/(1+|z|^2) - da/dz + i N h}.  With a = i (1+|z|^2)^2
dh/dzbar this is Tuynman's relation (J. Math. Phys. 28 (1987) 573)

    B_h = Pi G_h Pi = i T_{N h - Delta_1 h},    Delta_1 = (1+|z|^2)^2 d^2/dz dzbar.

The generators close under the Poisson bracket, [G_{h2}, G_{h1}] = G_p with
p = -xi_{h1} h2, so the compressed commutator is Pi [G2, G1] Pi =
i T_{N p - Delta_1 p}, and the curvature is Y = T_{i(N p - Delta_1 p)} -
[B2, B1].  That formula, in a model's symbol, bracket and column margins, is
one routine, `toeplitz.curvatures`, for this model and `quantcurv.fock`.  The
symbols h, p and their Delta_1 do not depend on N, so the chart algebra of a
batch of pairs is formed once, and each level scales by N, adds, and gets
every B, bracket and extra Toeplitz symbol from one pairing pass.

Symbols are `ChartFunction`s in one variable, keys (a, b), and the matrices
come from the engine of `quantcurv.toeplitz`, whose docstring states the
chart algebra and the protocol a basis follows.  Quantities that stay in the
small algebra of functions p(z, zbar)/(1+|z|^2)^m are closed-form: pairing
z^a zbar^b/(1+|z|^2)^m with the section z^j is zero unless a = b + j, and
then equals the Beta integral

    pi Gamma(a+1) Gamma(N+m+1-a) / Gamma(N+m+2),

evaluated in log space with every log carried as a (hi, lo) pair of doubles,
so each pairing is exact to rounding (`SectionBasis`, the protocol's
`log_pairing` and `row`).  Section coefficients and phase-space averages are
computed this way, and every operator matrix, whatever N, is the Toeplitz
matrix of a chart function, several symbols in one pass of
`toeplitz.toeplitz`, which `quantcurv.fock` shares.  The quadrature grid
(`SphereGrid`, `SectionSpace`) is used only where flows leave that algebra:
flowed frames in transport and in `curvature_fd`, multiplication by sampled
grid values (`compress_mult`) and the Gram check.  Both flowed-frame routes
move their states by `characteristic_step`, the points by two RK4 half
steps (`OdeStepper.step`) and the prefactor c in closed form, and project
onto a frame F as F G^{-1} F* through its Gram G = F*F.
`SectionSpace.monomial_rows` is the one recurrence that builds frames on the
grid and on its images under a flow (given a and q, also the rows of G on
them); chart functions are evaluated on points by `eval_batch` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul, truediv

import numpy as np

from .fock import FockTruncation, flat_curvature_operator, hamiltonian_bipoly, scalar_fit
from .linalg import OdeStepper, check_gram_spectrum, in_chart
from .symplectic import chi_symbol, p_minus_basis, p_plus_basis, standard_complex_structure, tangent_from_generator
from .toeplitz import ChartFunction, curvatures, dd_exp, dd_sum, log_factorials, toeplitz

__all__ = [
    "ChartFunction",
    "SphereGrid",
    "HamiltonianField",
    "hamiltonian_from_chart",
    "rotation_z",
    "rotation_x",
    "rotation_y",
    "harmonic_real",
    "harmonic_imag",
    "zonal_harmonic",
    "SectionBasis",
    "SectionSpace",
    "GRID_LEVEL_MAX",
    "EXACT_LEVEL_MAX",
    "phase_average",
    "compress_generator",
    "characteristic_step",
    "eval_batch",
    "pullback_frame",
    "chi_field",
    "curvature_commutator",
    "curvature_fd",
    "curvature_calibration",
    "symbol_decay_experiment",
]


_ZBAR_OVER_1PW = ChartFunction({(0, 1): 1.0}, denom=1)


@dataclass(frozen=True)
class SphereGrid:
    """Product quadrature on the chart: Gauss-Legendre radially, uniform angularly.

    Radial nodes are taken in t in (0,1) with u = |z|^2 = t/(1-t); under this
    substitution integrals of u^p/(1+u)^q against dmu reduce to polynomials
    t^p (1-t)^{q-p-2} (q >= p+2 for anything integrable on the sphere), so the
    rule is exact for all section pairings used here.  Total mass is pi.
    """

    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        mass = float(np.sum(self.weights))
        if abs(mass - math.pi) > 1e-10 * math.pi:
            raise ValueError(f"quadrature mass {mass} != pi")

    @property
    def u(self) -> np.ndarray:
        return np.abs(self.points) ** 2

    @classmethod
    def for_level(cls, N: int) -> "SphereGrid":
        """Grid resolving degree-2N oscillations with exactness margin:
        2N+16 radial by 4N+8 angular nodes."""
        n_radial, n_angular = 2 * N + 16, 4 * N + 8
        x, wx = np.polynomial.legendre.leggauss(n_radial)
        t = 0.5 * (x + 1.0)
        wt = 0.5 * wx
        r = np.sqrt(t / (1.0 - t))
        theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
        zz = np.outer(r, np.exp(1j * theta)).ravel()
        ww = np.outer(0.5 * wt, np.full(n_angular, 2.0 * np.pi / n_angular)).ravel()
        return cls(points=zz, weights=ww)


@dataclass(frozen=True)
class HamiltonianField:
    """Smooth real Hamiltonian on the sphere with its flow coefficient.

    `h` is the chart expression; `a` solves i_xi omega = -dH for omega = 2 dmu,
    i.e. a = i (1+|z|^2)^2 dh/dzbar, so the flow is zdot = a(z).  With h over
    (1+|z|^2)^m, a is stored over (1+|z|^2)^(m-1) (a constant h gives a = 0).
    """

    name: str
    h: ChartFunction
    a: ChartFunction = field(repr=False)


def hamiltonian_from_chart(name: str, h: ChartFunction) -> HamiltonianField:
    ha = h - h.conj()
    if any(abs(c) > 1e-12 for c in ha.terms.values()):
        raise ValueError("Hamiltonian chart function must be real")
    if not h.bounded_at_infinity():
        raise ValueError("Hamiltonian must stay bounded at the chart's far pole")
    return HamiltonianField(name=name, h=h, a=_flow(h))


def _flow(h: ChartFunction) -> ChartFunction:
    """a = i (1+|z|^2)^2 dh/dzbar, the flow coefficient of a bounded h."""
    return 1j * _times_one_plus_w_squared(h.dzbar(0))


def _times_one_plus_w_squared(d: ChartFunction) -> ChartFunction:
    """(1+|z|^2)^2 d for d a derivative of a bounded h = p/(1+|z|^2)^m: d lies
    over m + 1 or more, so two denominator powers drop exactly (with m = 0, h
    is constant and d has no terms)."""
    return ChartFunction(d.terms, max(d.denom - 2, 0))


def _laplacian(f: ChartFunction) -> ChartFunction:
    """Delta_1 f = (1+|z|^2)^2 d^2f/dz dzbar of a bounded chart function."""
    return _times_one_plus_w_squared(f.dzbar(0).dz(0))


def rotation_z() -> HamiltonianField:
    """Height function |z|^2/(1+|z|^2): rotation about the chart axis."""
    return hamiltonian_from_chart("rotation_z", ChartFunction({(1, 1): 1.0}, 1))


def rotation_x() -> HamiltonianField:
    """Re z/(1+|z|^2): rotation about an equatorial axis (isometry, A = 0)."""
    return hamiltonian_from_chart(
        "rotation_x", ChartFunction({(1, 0): 0.5, (0, 1): 0.5}, 1)
    )


def rotation_y() -> HamiltonianField:
    """Im z/(1+|z|^2): the other equatorial rotation."""
    return hamiltonian_from_chart(
        "rotation_y", ChartFunction({(1, 0): -0.5j, (0, 1): 0.5j}, 1)
    )


def harmonic_real() -> HamiltonianField:
    """Re(z^2)/(1+|z|^2)^2: degree-2 spherical harmonic, non-isometric flow."""
    return hamiltonian_from_chart(
        "harmonic_real", ChartFunction({(2, 0): 0.5, (0, 2): 0.5}, 2)
    )


def harmonic_imag() -> HamiltonianField:
    """Im(z^2)/(1+|z|^2)^2: companion degree-2 harmonic."""
    return hamiltonian_from_chart(
        "harmonic_imag", ChartFunction({(2, 0): -0.5j, (0, 2): 0.5j}, 2)
    )


def zonal_harmonic() -> HamiltonianField:
    """Degree-2 zonal harmonic (3 cos^2 theta - 1)/3 in chart form."""
    return hamiltonian_from_chart(
        "zonal_harmonic",
        ChartFunction({(0, 0): 2 / 3, (1, 1): -8 / 3, (2, 2): 2 / 3}, 2),
    )


# Largest level whose `SphereGrid.for_level` frame passes the Gram check of
# `SectionSpace`: every N <= 72 does (defect <= 4e-13).  Beyond it the fiber
# weight on the outermost radial ring goes subnormal (defect 1.7e-9 at N = 73)
# and then underflows to zero (9.6e-3 at N = 80).
GRID_LEVEL_MAX = 72
# Largest level at which the closed-form ladder has been checked: the rational
# oracles of tests/test_sphere.py hold there to 1e-11 relative, and eps keeps
# its N^-2 law (local slope -1.99 over 1024 -> 2048).
EXACT_LEVEL_MAX = 2048
_GRAM_TOL = 1e-10


# log pi = 1.14472988584940017414342735135305871164729481291531... as a pair
_LOG_PI = (1.1447298858494002, 1.0265951162707826e-17)


def _log_beta(N: int, a: np.ndarray, m):
    """log a! (N+m-a)! / (N+m+1)! as a (hi, lo) pair; pi times this Beta value
    is the level-N pairing of z^a zbar^b/(1+w)^m with z^(a-b)."""
    hi, lo = log_factorials(N + int(np.max(m, initial=0)) + 1)
    top = N + m + 1
    return dd_sum((hi[a], lo[a]), (hi[top - 1 - a], lo[top - 1 - a]), (-hi[top], -lo[top]))


def phase_average(f: ChartFunction) -> float:
    """Exact average (1/pi) int f dmu of a real chart function.

    Only the radial terms a = b survive the angular integral; each is the
    Beta integral a! (m-a)! / (m+1)!.
    """
    a = np.array([a for a, b in f.terms if a == b], dtype=np.int64)
    c = np.array([c for (a, b), c in f.terms.items() if a == b], dtype=complex)
    if np.any(a > f.denom):
        raise ValueError("chart function is not integrable over the sphere")
    return float(np.sum(c * dd_exp(_log_beta(0, a, f.denom))).real)


class SectionBasis:
    """Level-N holomorphic sections in the orthonormal basis e_k = z^k/||z^k||.

    Grid-free: every matrix is `toeplitz.toeplitz` with the Beta pairing, so entries
    stay O(1) even where ||z^k||^2 underflows a double, exact to rounding.
    """

    def __init__(self, N: int):
        self.N = N
        self.exps = np.arange(N + 1)[:, None]
        # ||z^k||^2 = <z^k, z^k>; halving a pair is exact
        hi, lo = self.log_pairing(self.exps, None, 0)
        self.log_norms = (0.5 * hi, 0.5 * lo)

    @property
    def dim(self) -> int:
        return self.N + 1

    def log_pairing(self, e, _beta, m):
        """log pi Beta as a pair (`_log_beta`); ValueError where it diverges."""
        if np.any(e[:, 0] > self.N + m):
            raise ValueError(f"pairing with level-{self.N} sections diverges")
        return dd_sum(_LOG_PI, _log_beta(self.N, e[:, 0], m))

    def row(self, r):
        """Row of the image z^r: r itself, -1 past N (it leaves the space)."""
        return np.where(r[:, 0] <= self.N, r[:, 0], -1)

    def coeffs(self, f: ChartFunction) -> np.ndarray:
        """Coefficients <e_k, f>: ||z^0|| times the column of z^0 under f."""
        return toeplitz([f], self, 1)[0, :, 0] * dd_exp(tuple(x[0] for x in self.log_norms))

    def toeplitz(self, fs: list) -> np.ndarray:
        """Toeplitz matrices <e_j, f e_k> of the chart functions f in `fs`,
        stacked along the first axis, from one `toeplitz.toeplitz` pass."""
        return toeplitz(fs, self, self.dim)

    def columns(self, _order: int) -> int:
        """Every column: a Toeplitz operator keeps the level-N space."""
        return self.dim


class SectionSpace(SectionBasis):
    """Level-N holomorphic sections sampled on the level's grid
    `SphereGrid.for_level(N)`, in half-weighted form.

    Vectors carry sqrt(quadrature weight x fiber weight), so the weighted L2
    pairing is the plain complex dot product and the normalized monomial frame
    has an exactly diagonal Gram matrix.  Construction checks that Gram against
    the identity and keeps no dim x points array: callers form the grid frame
    with `frame_at(grid.points, 1.0)`.
    """

    def __init__(self, N: int):
        super().__init__(N)
        self.norms = dd_exp(self.log_norms)
        self.grid = grid = SphereGrid.for_level(N)
        self.sqrtw = np.sqrt(grid.weights * (1.0 + grid.u) ** (-N))
        frame = self.frame_at(grid.points, 1.0)
        gram = frame.conj().T @ frame
        defect = float(np.max(np.abs(gram - np.eye(N + 1))))
        if not defect <= _GRAM_TOL:
            raise ValueError(
                f"level N={N}: grid frame Gram deviates from the identity by "
                f"{defect:.3g} (tolerance {_GRAM_TOL:g})"
            )

    def frame_at(
        self, z: np.ndarray, c, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Half-weighted frame columns c(x) z(x)^k / ||z^k||, k = 0..N, at points
        `z` (the grid or a flowed image): the rows of `monomial_rows` scaled by
        1/||z^k||, in `out` (C-ordered complex (dim, points)) if given, as (points, dim)."""
        rows = np.empty((self.dim, len(z)), dtype=complex) if out is None else out
        real = self.monomial_rows(z, c, rows).view(np.float64)  # scaled as reals
        real *= (1.0 / self.norms)[:, None]
        return rows.T

    def monomial_rows(self, z, c, rows, av=None, qv=None, w=None) -> np.ndarray:
        """Rows U_k = c sqrtw z^k, k = 0..N, into rows[:dim]; given the values
        `av`, `qv` of a and q at the points, also G U_k = (q z + k a) U_(k-1)
        (G U_0 = q U_0) into rows[dim:], running w = q z + k a in the row `w`
        down from k = N, so that it is least rounded where it cancels (far out)."""
        d = self.dim
        np.multiply(self.sqrtw, c, out=rows[0])
        for k in range(1, d):
            np.multiply(rows[k - 1], z, out=rows[k])
        if av is not None:
            np.multiply(qv, z, out=w)
            w += (d - 1) * av
            for k in range(d - 1, 0, -1):
                np.multiply(w, rows[k - 1], out=rows[d + k])
                w -= av
            np.multiply(rows[0], qv, out=rows[d])
        return rows

    # Closed form, as in the base class; bound here as well so that
    # per-class instrumentation (perfbench/tracing.py) finds it on SectionSpace.
    coeffs = SectionBasis.coeffs

    def compress_mult(self, values: np.ndarray) -> np.ndarray:
        """Toeplitz compression of multiplication by a real grid function."""
        frame = self.frame_at(self.grid.points, 1.0)
        return frame.conj().T @ (values[:, None] * frame)

def compress_generator(ham: HamiltonianField, space: SectionBasis) -> np.ndarray:
    """Matrix <e_j, G e_k> of the compressed prequantum generator: Tuynman's
    i T_{N h - Delta_1 h} of the module docstring."""
    return space.toeplitz([_generator_symbol(ham.h)(space.N)])[0]


def _generator_symbol(f: ChartFunction):
    """N -> i (N f - Delta_1 f), the level-N symbol of Pi G_f Pi, with
    Delta_1 f formed once."""
    lap = _laplacian(f)
    return lambda N: 1j * (float(N) * f - lap)


def eval_batch(cfs: list[ChartFunction], z: np.ndarray) -> list[np.ndarray]:
    """Evaluate many chart functions at once, sharing the power tables.

    Saves the repeated z**a work when the same point set is hit by a family
    of functions (the flow field and phase rate at the states where a
    characteristic step reads both).  The zeroth powers are ones and are
    never multiplied by.
    """
    z = np.asarray(z, dtype=complex)
    zb = z.conj()
    amax = max((a for cf in cfs for (a, _b) in cf.terms), default=0)
    bmax = max((b for cf in cfs for (_a, b) in cf.terms), default=0)
    mmax = max((cf.denom for cf in cfs), default=0)
    # running products: za[k] = za[k-1] * z, binv[k] = binv[k-1] / base
    za = [None, *accumulate(repeat(z, amax), mul)]
    zbp = [None, *accumulate(repeat(zb, bmax), mul)]
    base = 1.0 + (z * zb).real
    binv = [None, *accumulate([1.0 / base, *repeat(base, mmax - 1)], truediv)]
    out = []
    for cf in cfs:
        acc = None  # the first term is written, not added to zeros
        for (a, b), c in cf.terms.items():
            if a and b:
                term = c * za[a] * zbp[b]
            elif a or b:
                term = c * (za[a] if a else zbp[b])
            else:
                term = c if acc is not None else np.full_like(z, c)
            acc = term if acc is None else np.add(acc, term, out=acc)
            del term  # freed before the next term is formed
        acc = np.zeros_like(z) if acc is None else acc
        out.append(np.multiply(acc, binv[cf.denom], out=acc) if cf.denom else acc)
    return out


def characteristic_step(fields, state, dt: float, inverse: bool, mid_phase: bool = False):
    """One step of `dt` of the characteristic system of the flow pullback.

    `fields` are the chart functions (a, q), the flow field and the phase
    rate `phase_rate`, and a state is (z, c, av, qv): points, prefactors and
    the values of a and q at the points.  The points move with -a
    (inverse=True, the path entering V_t^{-1}) or +a by two RK4 half steps
    (`OdeStepper.step`), each starting from the a value of its first state,
    so that its other three stages evaluate a alone.  The prefactor solves
    cdot = -+q(z) c in closed form, c exp(-+int q), with the integral by
    Simpson's rule on q at the step's start, midpoint and end,
    (dt/6)(q_0 + 4 q_1/2 + q_1), the two states where (a, q) is evaluated.

    Returns the midpoint and end states.  The midpoint's c is None unless
    `mid_phase`; then the first half's integral is Simpson's rule too, on q
    at the cubic Hermite midpoint of the first half step, from z and a at
    its ends: one evaluation of q more, and an O(dt^5) error, where the
    first half of the step's quadratic in q errs by O(dt^4).
    """
    a, q = fields
    sign = -1.0 if inverse else 1.0
    z, c, av, qv = state
    half = OdeStepper(dt=0.5 * dt)

    def velocity(y):
        (v,) = eval_batch([a], y)
        v *= sign
        return v

    z_mid = half.step(velocity, z, k1=sign * av)
    a_mid, q_mid = eval_batch(fields, z_mid)
    z_end = half.step(velocity, z_mid, k1=sign * a_mid)
    a_end, q_end = eval_batch(fields, z_end)
    c_mid = None
    if mid_phase:
        z_quarter = 0.5 * (z + z_mid) + (sign * dt / 16.0) * (av - a_mid)
        (q_quarter,) = eval_batch([q], z_quarter)
        c_mid = c * np.exp((sign * dt / 12.0) * (qv + 4.0 * q_quarter + q_mid))
    c_end = c * np.exp((sign * dt / 6.0) * (qv + 4.0 * q_mid + q_end))
    return (z_mid, c_mid, a_mid, q_mid), (z_end, c_end, a_end, q_end)


def phase_rate(ham: HamiltonianField, N: int) -> ChartFunction:
    """q = -N a zbar/(1+w) + i N h, the source term along characteristics."""
    return (-float(N)) * (ham.a * _ZBAR_OVER_1PW) + (1j * N) * ham.h


def _bracket(h1: ChartFunction, h2: ChartFunction) -> ChartFunction:
    """p = -xi_{h1} h2, with [G_{h2}, G_{h1}] = G_p: the flow field a of h1
    acts as xi f = a df/dz + conj(a) df/dzbar."""
    a = _flow(h1)
    return -1.0 * (a * h2.dz(0) + a.conj() * h2.dzbar(0))


def pullback_frame(
    ham: HamiltonianField, space: SectionSpace, t: float, n_steps: int = 32
) -> np.ndarray:
    """Columns V_t^{-1} e_k sampled on the grid (half-weighted).

    (V_t s)(x) = c(x) s(psi_t(x)) with c = exp(int_0^t q(psi_sigma(x)) dsigma);
    for V_t^{-1} the characteristics run backward and the phase enters with
    the opposite sign.  A negative t gives V_{|t|} e_k, since V_{-t} = V_t^{-1}.
    The columns span the range of Pi_t = V_t^{-1} Pi_0 V_t, and their Gram
    stays the identity up to integration error because V_t is unitary.
    The characteristics take `n_steps` steps of |t| / n_steps
    (`characteristic_step`: two RK4 half steps of the points, and c in
    closed form, with the integral of q by Simpson's rule); a flow leaving
    the chart (in them or in the frame) raises ValueError.
    """
    if t == 0.0:
        return space.frame_at(space.grid.points, 1.0)
    fields = (ham.a, phase_rate(ham, space.N))
    z = space.grid.points
    state = (z, np.ones_like(z), *eval_batch(fields, z))
    n_steps = max(n_steps, 1)
    dt = abs(t) / n_steps
    with in_chart(f"pullback of {ham.name} at N={space.N}", t, lambda: t * done / n_steps):
        for done in range(n_steps):
            _mid, state = characteristic_step(fields, state, dt, inverse=t > 0)
        done = n_steps  # z^k of far points can overflow in the frame itself
        return space.frame_at(*state[:2])


def chi_field(h1: HamiltonianField, h2: HamiltonianField) -> ChartFunction:
    """Symbol chi(x) = tr(A1 J0 A2) of the curvature pairing.

    A_i = [J0, Dxi_i] is the tangent of the pulled-back complex structure
    J_t = (dpsi_t)^{-1} J0 dpsi_t along the flow zdot = a_i(z).  In the chart,
    Dxi v = a_z v + b vbar with b = da/dzbar, and J0 v = i v, so the commutator
    keeps only the antilinear part: A v = 2i b vbar.  Then A1 J0 A2 v =
    -4i b1 conj(b2) v is multiplication by a complex number, whose trace as a
    real 2x2 matrix is twice its real part:

        chi = 8 Im(b1 conj(b2)).

    The result is a real chart function, exactly integrable against section
    pairs; isometric flows (holomorphic a) give b = 0.
    """
    return (8.0 * (h1.a.dzbar(0) * h2.a.dzbar(0).conj())).imag()


def curvature_commutator(
    h1: HamiltonianField, h2: HamiltonianField, space: SectionBasis
) -> np.ndarray:
    """Curvature along two Hamiltonian directions from the generators.

    Builds Pi [G2, G1] Pi - [Pi G2 Pi, Pi G1 Pi] on the holomorphic range from
    the Toeplitz forms of the module docstring; every entry is a closed-form
    pairing, so entries carry rounding error only.
    """
    (((y,), _),) = curvatures([(h1.h, h2.h)], [space], _generator_symbol, _bracket)
    return y.copy()  # not a view, so that the pass's other matrices are freed


# Characteristic steps per pullback of `curvature_fd`: the error ratio from
# h = 2e-3 to 1e-3 reads 3.99990-4.00007 at N = 8..72, the h^2 value 4 to
# 1e-4, and reads the same with 4 steps.
_FD_STEPS = 16


def curvature_fd(
    h1: HamiltonianField,
    h2: HamiltonianField,
    space: SectionSpace,
    h: float = 1e-3,
    richardson: bool = False,
) -> np.ndarray:
    """Curvature from finite differences of the projector family.

    Compresses Pi_0 [d1 Pi, d2 Pi] Pi_0 with each dPi formed as a central
    difference of the deformed projectors at +/- h; the commutator order is
    the one under which the exact small models match `curvature_commutator`.
    Richardson combines h and h/2 for an O(h^4) estimate.

    A deformed projector is F G^{-1} F* with G = F*F on its flowed frame F,
    so with M = G^{-1} F* E (E the grid frame) E* Pi_a Pi_b E = M_a* (F_a* F_b)
    M_b; each block is its own product, so one Hamiltonian twice gives exactly
    0.  Raises np.linalg.LinAlgError if a flowed frame's Gram is refused.
    """

    def one(hh: float) -> np.ndarray:
        frames = {
            (i, s): pullback_frame(ham, space, s * hh, n_steps=_FD_STEPS)
            for i, ham in ((1, h1), (2, h2))
            for s in (+1, -1)
        }
        grid_frame = space.frame_at(space.grid.points, 1.0)  # E, once per h
        ms = {}
        for key, f in frames.items():
            f_h = f.conj().T
            gram = f_h @ f
            check_gram_spectrum(np.linalg.eigvalsh(gram))
            ms[key] = np.linalg.solve(gram, f_h @ grid_frame)

        def delta_pair(i: int, j: int) -> np.ndarray:
            # E* (d_i Pi)(d_j Pi) E assembled from (N+1) x (N+1) blocks
            tot = np.zeros((space.dim, space.dim), dtype=complex)
            for si in (+1, -1):
                for sj in (+1, -1):
                    cross = frames[(i, si)].conj().T @ frames[(j, sj)]
                    tot += (si * sj) * (ms[(i, si)].conj().T @ cross @ ms[(j, sj)])
            return tot / (4.0 * hh * hh)

        return delta_pair(1, 2) - delta_pair(2, 1)

    if not richardson:
        return one(h)
    return (4.0 * one(h / 2.0) - one(h)) / 3.0


@lru_cache(maxsize=1)
def curvature_calibration() -> complex:
    """Proportionality constant between the curvature and the chi compression.

    Measured once on the flat model, where both sides are exact scalars: the
    curvature along the quadratic pair (z^2 + zbar^2, i(z^2 - zbar^2)) built
    with the same prequantum conventions, against chi = tr(A1 J0 A2) of their
    linear flows.  The value is -i/8 with these conventions; computing it at
    runtime keeps every normalization choice in one place.
    """
    hp = p_plus_basis(1)[0]
    hm = p_minus_basis(1)[0]
    trunc = FockTruncation(n=1, N=6, D=10)
    (curv,) = flat_curvature_operator(
        [(hamiltonian_bipoly(hp), hamiltonian_bipoly(hm))], trunc
    )
    scalar, deviation = scalar_fit(curv)
    if deviation > 1e-10 * abs(scalar):
        raise RuntimeError("flat-model curvature is not scalar; conventions broken")
    j0 = standard_complex_structure(1)
    a1 = tangent_from_generator(hp.generator / 2.0, j0)
    a2 = tangent_from_generator(hm.generator / 2.0, j0)
    return scalar / chi_symbol(a1, j0, a2)


def symbol_decay_experiment(
    h1: HamiltonianField,
    h2: HamiltonianField,
    n_list: list[int],
) -> list[dict]:
    """Deviation of the calibrated curvature from the Toeplitz operator of chi.

    For each level N: eps = ||Y/c - T_chi||_HS^2 / (N+1) with Y the generator
    curvature, c the flat calibration constant, and T_chi the Toeplitz
    compression of chi.  Also reports both sides of the normalized trace
    identity (operator trace vs. phase-space average of chi); for Hamiltonian
    pairs both vanish identically.  Everything is closed-form: no grid.
    """
    c = curvature_calibration()
    chi = chi_field(h1, h2)
    trace_rhs = phase_average(chi)
    rows = []
    levels = curvatures(
        [(h1.h, h2.h)], map(SectionBasis, n_list), _generator_symbol, _bracket, [chi]
    )
    for N, ((y,), (t,)) in zip(n_list, levels):
        y = y / c
        eps = float(np.linalg.norm(y - t) ** 2 / (N + 1))
        trace_lhs = float(np.trace(y).real / (N + 1))
        rows.append(
            {
                "N": N,
                "dim": N + 1,
                "eps": eps,
                "trace_lhs": trace_lhs,
                "trace_rhs": trace_rhs,
            }
        )
    return rows
