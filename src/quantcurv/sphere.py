"""Berezin-Toeplitz quantization of the sphere in a single affine chart.

Level-N sections are polynomials of degree <= N in the chart coordinate z,
carried with the fiber weight (1+|z|^2)^{-N}; the ambient inner product uses
the area measure dmu = dx dy / (1+|z|^2)^2 (total mass pi).  The weight
prequantizes the form omega = 2 dmu with the pairing i_xi omega = -dH, which
fixes the flow coefficient of a Hamiltonian H at a = i (1+|z|^2)^2 dH/dzbar
and the generator of the lifted flow at

    G = nabla_xi + i N H,     nabla_dz = d/dz - N zbar/(1+|z|^2).

Quantities that stay in the small algebra of functions p(z, zbar)/(1+|z|^2)^m
are closed-form: pairing z^a zbar^b/(1+|z|^2)^m with the section z^j is zero
unless a = b + j, and then equals the Beta integral

    pi Gamma(a+1) Gamma(N+m+1-a) / Gamma(N+m+2),

evaluated in log space (`SectionBasis`).  Section coefficients, the
compressed generator, the generator curvature, the Toeplitz operator of a
chart function and its phase-space average are computed this way, with no
grid.  The quadrature grid (`SphereGrid`, `SectionSpace`) is used only where
flows leave that algebra: flowed frames in transport and in `curvature_fd`,
multiplication by sampled grid values (`compress_mult`) and the Gram check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import OdeStepper, orthonormal_columns
from .symplectic import chi_symbol, standard_complex_structure

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
    "GridOperator",
    "build_projector",
    "generator_apply",
    "compress_generator",
    "prequantum_generator",
    "characteristic_rhs",
    "eval_batch",
    "op_full",
    "pullback_frame",
    "projector_curve",
    "tangent_structure",
    "tangent_structure_fd",
    "chi_field",
    "curvature_commutator",
    "curvature_fd",
    "curvature_calibration",
    "symbol_decay_experiment",
]

_J0 = np.array([[0.0, -1.0], [1.0, 0.0]])


class ChartFunction:
    """Function of the form sum c_{ab} z^a zbar^b / (1+|z|^2)^m.

    The class is closed under +, *, d/dz, d/dzbar and conjugation, which is
    what makes projector and curvature matrix elements exactly integrable:
    against monomial sections and the fiber weight, every inner product is a
    closed-form Beta integral (`SectionBasis`).
    """

    __slots__ = ("terms", "denom")

    def __init__(self, terms: dict | None = None, denom: int = 0):
        if denom < 0:
            raise ValueError("denominator power must be >= 0")
        self.denom = denom
        self.terms = {}
        if terms:
            for (a, b), c in terms.items():
                if c != 0:
                    self.terms[(int(a), int(b))] = complex(c)

    @classmethod
    def monomial(cls, a: int, b: int = 0, coeff: complex = 1.0, denom: int = 0):
        return cls({(a, b): coeff}, denom)

    @classmethod
    def zero(cls):
        return cls()

    def _with_denom(self, m: int) -> dict:
        """Terms re-expressed over (1+|z|^2)^m (m >= self.denom)."""
        k = m - self.denom
        if k == 0:
            return dict(self.terms)
        out: dict = {}
        for j in range(k + 1):
            binom = math.comb(k, j)
            for (a, b), c in self.terms.items():
                key = (a + j, b + j)
                out[key] = out.get(key, 0.0) + binom * c
        return out

    def __add__(self, other: "ChartFunction") -> "ChartFunction":
        m = max(self.denom, other.denom)
        out = self._with_denom(m)
        for key, c in other._with_denom(m).items():
            s = out.get(key, 0.0) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return ChartFunction(out, m)

    def __sub__(self, other: "ChartFunction") -> "ChartFunction":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "ChartFunction":
        return ChartFunction(
            {key: scalar * c for key, c in self.terms.items()}, self.denom
        )

    def __mul__(self, other: "ChartFunction") -> "ChartFunction":
        out: dict = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                s = out.get(key, 0.0) + c1 * c2
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return ChartFunction(out, self.denom + other.denom)

    def dz(self) -> "ChartFunction":
        # d/dz [p/(1+w)^m] = [p_z (1+w) - m zbar p] / (1+w)^{m+1},  w = z zbar
        out: dict = {}
        for (a, b), c in self.terms.items():
            if a:
                for key, v in (((a - 1, b), a * c), ((a, b + 1), a * c)):
                    out[key] = out.get(key, 0.0) + v
            if self.denom:
                key = (a, b + 1)
                out[key] = out.get(key, 0.0) - self.denom * c
        return ChartFunction(out, self.denom + 1)

    def dzbar(self) -> "ChartFunction":
        out: dict = {}
        for (a, b), c in self.terms.items():
            if b:
                for key, v in (((a, b - 1), b * c), ((a + 1, b), b * c)):
                    out[key] = out.get(key, 0.0) + v
            if self.denom:
                key = (a + 1, b)
                out[key] = out.get(key, 0.0) - self.denom * c
        return ChartFunction(out, self.denom + 1)

    def conj(self) -> "ChartFunction":
        return ChartFunction(
            {(b, a): c.conjugate() for (a, b), c in self.terms.items()}, self.denom
        )

    def real(self) -> "ChartFunction":
        return 0.5 * (self + self.conj())

    def imag(self) -> "ChartFunction":
        return -0.5j * (self - self.conj())

    def eval(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        zb = z.conj()
        base = 1.0 + (z * zb).real
        out = np.zeros(z.shape, dtype=complex)
        for (a, b), c in self.terms.items():
            out += c * z**a * zb**b
        if self.denom:
            out = out / base**self.denom
        return out

    def bounded_at_infinity(self) -> bool:
        return all(a + b <= 2 * self.denom for (a, b) in self.terms)

    def __repr__(self):
        return f"ChartFunction(nterms={len(self.terms)}, denom={self.denom})"


_ZBAR = ChartFunction({(0, 1): 1.0})
_ONE_PLUS_W_SQ = ChartFunction({(0, 0): 1.0, (1, 1): 2.0, (2, 2): 1.0})
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
    n_radial: int
    n_angular: int

    def __post_init__(self):
        mass = float(np.sum(self.weights))
        if abs(mass - math.pi) > 1e-10 * math.pi:
            raise ValueError(f"quadrature mass {mass} != pi")

    @property
    def u(self) -> np.ndarray:
        return np.abs(self.points) ** 2

    @classmethod
    def build(cls, n_radial: int, n_angular: int) -> "SphereGrid":
        x, wx = np.polynomial.legendre.leggauss(n_radial)
        t = 0.5 * (x + 1.0)
        wt = 0.5 * wx
        r = np.sqrt(t / (1.0 - t))
        theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
        zz = np.outer(r, np.exp(1j * theta)).ravel()
        ww = np.outer(0.5 * wt, np.full(n_angular, 2.0 * np.pi / n_angular)).ravel()
        return cls(points=zz, weights=ww, n_radial=n_radial, n_angular=n_angular)

    @classmethod
    def for_level(cls, N: int) -> "SphereGrid":
        """Grid resolving degree-2N oscillations with exactness margin."""
        return cls.build(n_radial=2 * N + 16, n_angular=4 * N + 8)


@dataclass(frozen=True)
class HamiltonianField:
    """Smooth real Hamiltonian on the sphere with its flow coefficient.

    `h` is the chart expression; `a` solves i_xi omega = -dH for omega = 2 dmu,
    i.e. a = i (1+|z|^2)^2 dh/dzbar, so the flow is zdot = a(z).
    """

    name: str
    h: ChartFunction
    a: ChartFunction = field(repr=False)

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        """Real 2x2 Jacobian of the flow field at each point, shape (..., 2, 2)."""
        az = self.a.dz().eval(z)
        azb = self.a.dzbar().eval(z)
        dxa = az + azb
        dya = 1j * (az - azb)
        out = np.empty(z.shape + (2, 2))
        out[..., 0, 0] = dxa.real
        out[..., 0, 1] = dya.real
        out[..., 1, 0] = dxa.imag
        out[..., 1, 1] = dya.imag
        return out


def hamiltonian_from_chart(name: str, h: ChartFunction) -> HamiltonianField:
    ha = h - h.conj()
    if any(abs(c) > 1e-12 for c in ha.terms.values()):
        raise ValueError("Hamiltonian chart function must be real")
    if not h.bounded_at_infinity():
        raise ValueError("Hamiltonian must stay bounded at the chart's far pole")
    a = 1j * (_ONE_PLUS_W_SQ * h.dzbar())
    return HamiltonianField(name=name, h=h, a=a)


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
_LOG_PI = math.log(math.pi)


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])


def _log_pairing(N: int, a: np.ndarray, m: np.ndarray, logf: np.ndarray) -> np.ndarray:
    """log of pi a! (N+m-a)! / (N+m+1)!, the level-N pairing of z^a zbar^b/(1+w)^m
    with z^(a-b); `logf` holds log k! up to N + max(m) + 1."""
    return _LOG_PI + logf[a] + logf[N + m - a] - logf[N + m + 1]


def _flat_terms(fs: list[ChartFunction]):
    """Terms of several chart functions as arrays (owner index, a, b, m, coeff)."""
    idx = np.array(
        [(i, a, b, f.denom) for i, f in enumerate(fs) for (a, b) in f.terms], dtype=int
    ).reshape(-1, 4)
    coeff = np.array([c for f in fs for c in f.terms.values()], dtype=complex)
    return (*idx.T, coeff)


def phase_average(f: ChartFunction) -> float:
    """Exact average (1/pi) int f dmu of a real chart function.

    Only the radial terms a = b survive the angular integral; each is the
    Beta integral a! (m-a)! / (m+1)!.
    """
    _i, a, b, m, c = _flat_terms([f])
    keep = a == b
    a, m, c = a[keep], m[keep], c[keep]
    if np.any(a > m):
        raise ValueError("chart function is not integrable over the sphere")
    logf = _log_factorials(int(m.max(initial=0)) + 1)
    return float(np.sum(c * np.exp(_log_pairing(0, a, m, logf) - _LOG_PI)).real)


class SectionBasis:
    """Level-N holomorphic sections in the orthonormal basis e_k = z^k/||z^k||.

    Grid-free: every pairing of a section with a chart function is the
    closed-form Beta integral of the module docstring.  Each matrix entry is
    formed as exp(log Beta - log||z^j|| - log||z^k||), so entries stay O(1)
    even at levels where ||z^k||^2 itself underflows a double.
    """

    def __init__(self, N: int):
        self.N = N
        logf = _log_factorials(N + 1)
        k = np.arange(N + 1)
        # ||z^k||^2 = pi k! (N-k)! / (N+1)!
        self.log_norms = 0.5 * (_LOG_PI + logf[k] + logf[N - k] - logf[N + 1])

    @property
    def dim(self) -> int:
        return self.N + 1

    def _pairings(self, fs: list[ChartFunction], log_scale: np.ndarray) -> np.ndarray:
        """Matrix <e_j, f_k> * exp(-log_scale[k]) with one column per function."""
        N = self.N
        k, a, b, m, c = _flat_terms(fs)
        j = a - b
        keep = (j >= 0) & (j <= N)
        k, a, j, m, c = k[keep], a[keep], j[keep], m[keep], c[keep]
        if np.any(a > N + m):
            raise ValueError(f"pairing with level-{N} sections diverges")
        logf = _log_factorials(N + int(m.max(initial=0)) + 1)
        logv = _log_pairing(N, a, m, logf) - self.log_norms[j] - log_scale[k]
        out = np.zeros((N + 1, len(fs)), dtype=complex)
        np.add.at(out, (j, k), c * np.exp(logv))
        return out

    def coeffs(self, f: ChartFunction) -> np.ndarray:
        """Coefficients <e_k, f> against the orthonormal monomial sections."""
        return self._pairings([f], np.zeros(1))[:, 0]

    def operator_matrix(self, images: list[ChartFunction]) -> np.ndarray:
        """Matrix <e_j, A e_k> of an operator from its images A z^k, k = 0..N."""
        return self._pairings(images, self.log_norms)

    def toeplitz(self, f: ChartFunction) -> np.ndarray:
        """Toeplitz compression <e_j, f e_k> of multiplication by f."""
        return self.operator_matrix(
            [f * ChartFunction.monomial(k) for k in range(self.dim)]
        )


class SectionSpace(SectionBasis):
    """Level-N holomorphic sections sampled on a grid, in half-weighted form.

    Vectors carry sqrt(quadrature weight x fiber weight), so the weighted L2
    pairing is the plain complex dot product and the normalized monomial frame
    has an exactly diagonal Gram matrix.  Construction checks that Gram against
    the identity and refuses a level the grid cannot resolve.
    """

    def __init__(self, N: int, grid: SphereGrid):
        if grid.n_angular < 4 * N + 8 or grid.n_radial < 2 * N + 16:
            raise ValueError("grid too coarse for level N (needs 4N+8 x 2N+16)")
        super().__init__(N)
        self.norms = np.exp(self.log_norms)
        self.grid = grid
        u = grid.u
        self.section_weights = grid.weights * (1.0 + u) ** (-N)
        self.sqrtw = np.sqrt(self.section_weights)
        z = grid.points
        cols = [self.sqrtw * z**k / self.norms[k] for k in range(N + 1)]
        self.frame = np.column_stack(cols)
        gram = self.frame.conj().T @ self.frame
        defect = float(np.max(np.abs(gram - np.eye(N + 1))))
        if not defect <= _GRAM_TOL:
            raise ValueError(
                f"level N={N}: grid frame Gram deviates from the identity by "
                f"{defect:.3g} (tolerance {_GRAM_TOL:g})"
            )

    # Closed form, as in the base class; bound here as well so that
    # per-class instrumentation (perfbench/tracing.py) finds it on SectionSpace.
    coeffs = SectionBasis.coeffs

    def sample(self, f: ChartFunction) -> np.ndarray:
        """Half-weighted grid vector of a chart function."""
        return self.sqrtw * f.eval(self.grid.points)

    def compress_mult(self, values: np.ndarray) -> np.ndarray:
        """Toeplitz compression of multiplication by a real grid function."""
        return self.frame.conj().T @ (values[:, None] * self.frame)

    def lift(self, core: np.ndarray) -> "GridOperator":
        return GridOperator(frame=self.frame, core=np.asarray(core, dtype=complex))


@dataclass(frozen=True)
class GridOperator:
    """Operator on half-weighted grid vectors in factored form F C F*."""

    frame: np.ndarray = field(repr=False)
    core: np.ndarray = field(repr=False)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.frame @ (self.core @ (self.frame.conj().T @ vec))

    def dense(self) -> np.ndarray:
        return self.frame @ self.core @ self.frame.conj().T

    @property
    def rank_bound(self) -> int:
        return self.core.shape[0]


def build_projector(N: int, grid: SphereGrid) -> GridOperator:
    """Orthogonal projector onto the holomorphic sections at level N."""
    space = SectionSpace(N, grid)
    return space.lift(np.eye(N + 1))


def generator_apply(ham: HamiltonianField, f: ChartFunction, N: int) -> ChartFunction:
    """G f = a f_z + conj(a) f_zbar - N (a zbar/(1+w)) f + i N h f, symbolically."""
    a = ham.a
    out = a * f.dz() + a.conj() * f.dzbar()
    out = out - float(N) * ((a * _ZBAR_OVER_1PW) * f)
    out = out + (1j * N) * (ham.h * f)
    return out


def compress_generator(ham: HamiltonianField, space: SectionBasis) -> np.ndarray:
    """Matrix <e_j, G e_k> of the compressed prequantum generator (closed form)."""
    N = space.N
    return space.operator_matrix(
        [generator_apply(ham, ChartFunction.monomial(k), N) for k in range(N + 1)]
    )


def eval_batch(cfs: list[ChartFunction], z: np.ndarray) -> list[np.ndarray]:
    """Evaluate many chart functions at once, sharing the power tables.

    Saves the repeated z**a work when the same point set is hit by a family
    of functions (generator columns along a flow, stage evaluations in time
    stepping).
    """
    z = np.asarray(z, dtype=complex)
    zb = z.conj()
    amax = max((a for cf in cfs for (a, _b) in cf.terms), default=0)
    bmax = max((b for cf in cfs for (_a, b) in cf.terms), default=0)
    mmax = max((cf.denom for cf in cfs), default=0)
    za = [np.ones_like(z)]
    for _ in range(amax):
        za.append(za[-1] * z)
    zbp = [np.ones_like(z)]
    for _ in range(bmax):
        zbp.append(zbp[-1] * zb)
    base = 1.0 + (z * zb).real
    binv = [np.ones_like(base)]
    for _ in range(mmax):
        binv.append(binv[-1] / base)
    out = []
    for cf in cfs:
        acc = np.zeros_like(z)
        for (a, b), c in cf.terms.items():
            acc += c * za[a] * zbp[b]
        out.append(acc * binv[cf.denom])
    return out


def characteristic_rhs(ham: HamiltonianField, N: int, inverse: bool = True):
    """Right-hand side of the characteristic system for the flow pullback.

    State is (z, c) stacked as a (2, n) complex array: the point moves with
    -a (inverse=True, the path entering V_t^{-1}) or +a, and the prefactor
    picks up the matching phase rate q = -N a zbar/(1+|z|^2) + i N h.
    """
    q = _phase_rate(ham, N)
    sign = -1.0 if inverse else 1.0

    def rhs(_tau, y):
        z, c = y
        av, qv = eval_batch([ham.a, q], z)
        return np.stack([sign * av, sign * qv * c])

    return rhs


def prequantum_generator(
    ham: HamiltonianField, N: int, grid: SphereGrid
) -> np.ndarray:
    """Compression of nabla_xi + i N H to the holomorphic range (anti-Hermitian).

    The full operator acts on chart functions via `generator_apply`; only its
    matrix on the range is materialized.
    """
    return compress_generator(ham, SectionSpace(N, grid))


def op_full(ham: HamiltonianField, N: int, grid: SphereGrid) -> np.ndarray:
    """Compression of -i nabla_xi + N H (Hermitian; equals -i times the generator)."""
    return -1j * prequantum_generator(ham, N, grid)


def _phase_rate(ham: HamiltonianField, N: int) -> ChartFunction:
    """q = -N a zbar/(1+w) + i N h, the source term along characteristics."""
    return (-float(N)) * (ham.a * _ZBAR_OVER_1PW) + (1j * N) * ham.h


def _flow_states(
    ham: HamiltonianField,
    N: int,
    points: np.ndarray,
    t: float,
    n_steps: int,
    inverse: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate characteristics from each point: returns (z_t, phase factor c_t).

    For the pullback V_t (inverse=False): (V_t s)(x) = c(x) s(psi_t(x)) with
    c = exp(int_0^t q(psi_sigma(x)) dsigma).  For V_t^{-1} (inverse=True) the
    path runs backward and the phase enters with the opposite sign.
    """
    rhs = characteristic_rhs(ham, N, inverse=inverse)
    y0 = np.stack([points.astype(complex), np.ones(len(points), dtype=complex)])
    stepper = OdeStepper(dt=abs(t) / max(n_steps, 1) if t else 1.0)
    y = stepper.propagate(rhs, 0.0, y0, abs(t)) if t else y0
    return y[0], y[1]


def pullback_frame(
    ham: HamiltonianField,
    space: SectionSpace,
    t: float,
    n_steps: int = 32,
    inverse: bool = True,
) -> np.ndarray:
    """Columns V_t^{±1} e_k sampled on the grid (half-weighted).

    With inverse=True these span the range of Pi_t = V_t^{-1} Pi_0 V_t; the
    frame Gram stays the identity up to integration error because V_t is
    unitary.
    """
    if t == 0.0:
        return space.frame.copy()
    # time reversal: V_{-t} = V_t^{-1} with the roles of the two paths swapped
    inv = inverse if t > 0 else not inverse
    zt, ct = _flow_states(ham, space.N, space.grid.points, abs(t), n_steps, inv)
    cols = [
        space.sqrtw * ct * zt**k / space.norms[k] for k in range(space.N + 1)
    ]
    return np.column_stack(cols)


def projector_curve(
    ham: HamiltonianField,
    space: SectionSpace,
    t: float,
    n_steps: int = 32,
) -> GridOperator:
    """Projector onto the deformed holomorphic sections at flow time t."""
    frame = pullback_frame(ham, space, t, n_steps=n_steps, inverse=True)
    q = orthonormal_columns(frame)
    return GridOperator(frame=q, core=np.eye(space.N + 1, dtype=complex))


def tangent_structure(ham: HamiltonianField, points: np.ndarray) -> np.ndarray:
    """Derivative of the pulled-back complex structure at t = 0, pointwise.

    For the family J_t = (dpsi_t)^{-1} J0 (dpsi_t) in an affine chart where J0
    is constant, the derivative is the commutator [J0, Dxi] with the flow
    Jacobian; returns shape (..., 2, 2).  Isometric flows give 0.
    """
    d = ham.jacobian(points)
    return _J0 @ d - d @ _J0


def tangent_structure_fd(
    ham: HamiltonianField,
    points: np.ndarray,
    h: float = 1e-3,
    n_steps: int = 8,
) -> np.ndarray:
    """Same tangent field by central differences of the flow differential.

    Integrates the variational equation Mdot = Dxi(psi_tau) M alongside the
    flow to +/- h and differences (dpsi)^{-1} J0 (dpsi).
    """
    points = np.asarray(points, dtype=complex)

    def flow_differential(tt: float) -> np.ndarray:
        sign = 1.0 if tt >= 0 else -1.0

        def rhs(_tau, y):
            z = y[0]
            m = y[1:5].real.reshape(2, 2, -1)
            dxi = ham.jacobian(z)  # (n, 2, 2)
            dm = np.einsum("nij,jkn->ikn", dxi, m)
            return np.concatenate(
                [(sign * ham.a.eval(z))[None, :], sign * dm.reshape(4, -1)]
            )

        m0 = np.zeros((4, len(points)), dtype=complex)
        m0[0] = 1.0
        m0[3] = 1.0
        y0 = np.concatenate([points[None, :], m0])
        y = OdeStepper(dt=abs(tt) / n_steps).propagate(rhs, 0.0, y0, abs(tt))
        return y[1:5].real.reshape(2, 2, -1).transpose(2, 0, 1)

    def conjugated(tt: float) -> np.ndarray:
        m = flow_differential(tt)
        det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
        inv = np.empty_like(m)
        inv[:, 0, 0] = m[:, 1, 1]
        inv[:, 1, 1] = m[:, 0, 0]
        inv[:, 0, 1] = -m[:, 0, 1]
        inv[:, 1, 0] = -m[:, 1, 0]
        inv /= det[:, None, None]
        return inv @ _J0 @ m

    return (conjugated(h) - conjugated(-h)) / (2.0 * h)


def _tangent_chart_matrix(ham: HamiltonianField) -> list[list[ChartFunction]]:
    """Entries of [J0, Dxi] as chart functions (symbolic tangent field)."""
    az = ham.a.dz()
    azb = ham.a.dzbar()
    dxa = az + azb
    dya = 1j * (az - azb)
    d11, d12 = dxa.real(), dya.real()
    d21, d22 = dxa.imag(), dya.imag()
    # J0 D - D J0 with J0 = [[0,-1],[1,0]]
    return [
        [(-1.0) * (d21 + d12), d11 - d22],
        [d11 - d22, d12 + d21],
    ]


def chi_field(h1: HamiltonianField, h2: HamiltonianField, grid=None):
    """Symbol chi(x) = tr(A1 J0 A2) of the curvature pairing.

    A_i are the tangent fields of the two pullback families; the result is a
    real chart function, exactly integrable against section pairs.  With a
    grid argument, returns the sampled real values instead.
    """
    a = _tangent_chart_matrix(h1)
    b = _tangent_chart_matrix(h2)
    # J0 B = [[-b21, -b22], [b11, b12]]; chi = tr(A @ J0B)
    chi = (
        (-1.0) * (a[0][0] * b[1][0])
        + a[0][1] * b[0][0]
        + (-1.0) * (a[1][0] * b[1][1])
        + a[1][1] * b[0][1]
    )
    chi = chi.real()
    if grid is not None:
        return chi.eval(grid.points).real
    return chi


def curvature_commutator(
    h1: HamiltonianField, h2: HamiltonianField, space: SectionBasis
) -> np.ndarray:
    """Curvature along two Hamiltonian directions from the generators.

    Builds Pi [G2, G1] Pi - [Pi G2 Pi, Pi G1 Pi] on the holomorphic range; the
    double application runs in the symbolic chart algebra and every entry is
    a closed-form pairing, so entries carry rounding error only.
    """
    N = space.N
    b1 = compress_generator(h1, space)
    b2 = compress_generator(h2, space)
    term2 = b2 @ b1 - b1 @ b2
    inner = []
    for k in range(N + 1):
        mk = ChartFunction.monomial(k)
        g1 = generator_apply(h1, mk, N)
        g2 = generator_apply(h2, mk, N)
        inner.append(generator_apply(h2, g1, N) - generator_apply(h1, g2, N))
    return space.operator_matrix(inner) - term2


def curvature_fd(
    h1: HamiltonianField,
    h2: HamiltonianField,
    space: SectionSpace,
    h: float = 1e-3,
    n_steps: int = 4,
    richardson: bool = False,
) -> np.ndarray:
    """Curvature from finite differences of the projector family.

    Compresses Pi_0 [d1 Pi, d2 Pi] Pi_0 with each dPi formed as a central
    difference of the deformed projectors at +/- h; the commutator order is
    the one under which the exact small models match `curvature_commutator`.
    Richardson combines h and h/2 for an O(h^4) estimate.
    """

    def one(hh: float) -> np.ndarray:
        q0 = space.frame
        qs = {}
        for idx, ham in ((1, h1), (2, h2)):
            for s in (+1, -1):
                f = pullback_frame(ham, space, s * hh, n_steps=n_steps)
                qs[(idx, s)] = orthonormal_columns(f)

        def delta_pair(i: int, j: int) -> np.ndarray:
            # Q0^H (d_i Pi)(d_j Pi) Q0 assembled from rank-(N+1) factors
            tot = np.zeros((space.dim, space.dim), dtype=complex)
            for si in (+1, -1):
                for sj in (+1, -1):
                    qi = qs[(i, si)]
                    qj = qs[(j, sj)]
                    tot += (si * sj) * (
                        (q0.conj().T @ qi) @ (qi.conj().T @ qj) @ (qj.conj().T @ q0)
                    )
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
    from .fock import FockTruncation, flat_curvature_operator, hamiltonian_bipoly
    from .symplectic import p_minus_basis, p_plus_basis

    hp = p_plus_basis(1)[0]
    hm = p_minus_basis(1)[0]
    trunc = FockTruncation(n=1, N=6, D=10)
    curv = flat_curvature_operator(
        hamiltonian_bipoly(hp), hamiltonian_bipoly(hm), trunc
    )
    cols = curv.columns()
    k = cols.shape[1]
    scalar = complex(np.trace(cols[:k, :]) / k)
    target = np.zeros_like(cols)
    target[:k, :] = scalar * np.eye(k)
    if np.linalg.norm(cols - target) > 1e-10 * abs(scalar) * math.sqrt(k):
        raise RuntimeError("flat-model curvature is not scalar; conventions broken")
    j0 = standard_complex_structure(1)
    a1 = j0 @ (hp.generator / 2.0) - (hp.generator / 2.0) @ j0
    a2 = j0 @ (hm.generator / 2.0) - (hm.generator / 2.0) @ j0
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
    for N in n_list:
        basis = SectionBasis(N)
        y = curvature_commutator(h1, h2, basis) / c
        t = basis.toeplitz(chi)
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
