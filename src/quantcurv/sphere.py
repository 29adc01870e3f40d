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
q = -N a zbar/(1+|z|^2) + i N h.  On holomorphic sections G and the
commutator of two generators act as

    G z^k = k a z^(k-1) + q z^k,      [G2, G1] z^k = k A z^(k-1) + Q z^k,

with A = xi2 a1 - xi1 a2 and Q = xi2 q1 - xi1 q2: the a1 a2 d^2/dz^2,
a_i q_j d/dz and q1 q2 terms of the two products cancel.

Chart functions: a `ChartFunction` is p(z, zbar)/(1+|z|^2)^m on a chart of
C^n, |z|^2 = sum_j z_j zbar_j, with one denominator power m >= 0 and p stored
as {key: c}, the term c z^alpha zbar^beta under the flat exponent key

    key = (alpha_1, ..., alpha_n, beta_1, ..., beta_n),

so n is the key length over two.  The sphere chart has n = 1 and keys (a, b).
The flat Fock model (`quantcurv.fock`) uses the same class with m = 0, where
it is a polynomial in z and zbar and d/dz_j, d/dzbar_j keep m = 0.

Quantities that stay in the small algebra of functions p(z, zbar)/(1+|z|^2)^m
are closed-form: pairing z^a zbar^b/(1+|z|^2)^m with the section z^j is zero
unless a = b + j, and then equals the Beta integral

    pi Gamma(a+1) Gamma(N+m+1-a) / Gamma(N+m+2),

evaluated in log space with every log carried as a (hi, lo) pair of doubles,
so each pairing is exact to rounding (`SectionBasis`).  Section coefficients
and phase-space averages are computed this way, and every operator is
`SectionBasis.operator_matrix` of two chart functions, whatever N: (a, q) for
the compressed generator, (0, f) for the Toeplitz operator of f and (A, Q)
for the commutator in the curvature.  The quadrature grid (`SphereGrid`,
`SectionSpace`) is used only where flows leave that algebra: flowed frames in
transport and in `curvature_fd`, multiplication by sampled grid values
(`compress_mult`) and the Gram check.
`SectionSpace.frame_at` is the one builder of half-weighted frames on the
grid, for the grid itself and for its images under a flow; chart functions
are evaluated on points by `eval_batch` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from operator import add

import numpy as np

from .linalg import OdeStepper, orthonormal_columns
from .symplectic import chi_symbol, standard_complex_structure, tangent_from_generator

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
    "characteristic_rhs",
    "eval_batch",
    "pullback_frame",
    "chi_field",
    "curvature_commutator",
    "curvature_fd",
    "curvature_calibration",
    "symbol_decay_experiment",
]


class ChartFunction:
    """Function sum c z^alpha zbar^beta / (1+|z|^2)^m on a chart of C^n.

    Terms are {key: c} with flat keys (alpha, beta), as the module docstring
    says.  The class is closed under +, *, d/dz_j, d/dzbar_j and conjugation,
    which is what makes projector and curvature matrix elements exactly
    integrable: against monomial sections and the fiber weight, every inner
    product is a closed-form Beta integral (`SectionBasis`).
    """

    __slots__ = ("terms", "denom")

    def __init__(self, terms: dict | None = None, denom: int = 0):
        if denom < 0:
            raise ValueError("denominator power must be >= 0")
        self.denom = denom
        self.terms = (
            {tuple(key): complex(c) for key, c in terms.items() if c != 0} if terms else {}
        )

    @classmethod
    def monomial(cls, alpha, beta=None, coeff: complex = 1.0, denom: int = 0):
        """coeff z^alpha zbar^beta / (1+|z|^2)^denom; beta defaults to 0, and an
        integer exponent is a multi-index in one variable."""
        alpha = tuple(alpha) if np.ndim(alpha) else (int(alpha),)
        if beta is None:
            beta = (0,) * len(alpha)
        beta = tuple(beta) if np.ndim(beta) else (int(beta),)
        return cls({alpha + beta: coeff}, denom)

    @property
    def nvars(self) -> int:
        """n, read off the key length (0 when there are no terms)."""
        return len(next(iter(self.terms), ())) // 2

    def _with_denom(self, m: int) -> dict:
        """Terms re-expressed over (1+|z|^2)^m (m >= self.denom): times the
        multinomial expansion of (1+|z|^2)^k, k = m - self.denom."""
        k = m - self.denom
        if k == 0:
            return dict(self.terms)
        out: dict = {}
        for g in product(range(k + 1), repeat=self.nvars):
            if sum(g) > k:
                continue
            coef = math.factorial(k) // math.prod(map(math.factorial, (k - sum(g), *g)))
            for key, c in self.terms.items():
                key = tuple(map(add, key, g + g))
                out[key] = out.get(key, 0.0) + coef * c
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
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(map(add, k1, k2))
                s = out.get(key, 0.0) + c1 * c2
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return ChartFunction(out, self.denom + other.denom)

    def dz(self, j: int) -> "ChartFunction":
        """d/dz_j: over m = 0 the plain derivative, again over m = 0; over
        m > 0 the quotient rule

            d/dz_j [p/(1+w)^m] = [p_{z_j} (1+w) - m zbar_j p] / (1+w)^(m+1),

        w = |z|^2, with (1+w) applied to p_{z_j} as 1 + sum_k z_k zbar_k."""
        return self._derivative(j, 0)

    def dzbar(self, j: int) -> "ChartFunction":
        """d/dzbar_j, the conjugate rule of `dz`."""
        return self._derivative(j, 1)

    def _derivative(self, j: int, side: int) -> "ChartFunction":
        """Derivative in key slot j + side n; its conjugate variable is slot
        j + (1 - side) n."""
        n, m = self.nvars, self.denom
        d, e = j + side * n, j + (1 - side) * n
        out: dict = {}
        for key, c in self.terms.items():
            p = key[d]
            if p:
                low = key[:d] + (p - 1,) + key[d + 1 :]
                out[low] = out.get(low, 0.0) + p * c
                if m:  # the w part of (1 + w): one z_k zbar_k shift each
                    for k in range(n):
                        up = list(low)
                        up[k] += 1
                        up[k + n] += 1
                        up = tuple(up)
                        out[up] = out.get(up, 0.0) + p * c
            if m:
                up = key[:e] + (key[e] + 1,) + key[e + 1 :]
                out[up] = out.get(up, 0.0) - m * c
        return ChartFunction(out, m + 1 if m else 0)

    def conj(self) -> "ChartFunction":
        n = self.nvars
        return ChartFunction(
            {key[n:] + key[:n]: c.conjugate() for key, c in self.terms.items()}, self.denom
        )

    def imag(self) -> "ChartFunction":
        return -0.5j * (self - self.conj())

    def eval(self, z: np.ndarray) -> np.ndarray:
        """Values at the points z of the one-variable chart (n = 1)."""
        return eval_batch([self], z)[0]

    def bounded_at_infinity(self) -> bool:
        return all(sum(key) <= 2 * self.denom for key in self.terms)

    def __repr__(self):
        return f"ChartFunction(nterms={len(self.terms)}, denom={self.denom})"


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
    # dh/dzbar lies over (1+|z|^2)^(m+1): dropping two powers of the
    # denominator is the factor (1+|z|^2)^2, exactly.  A bounded h with m = 0
    # is constant, and its derivative has no terms.
    dh = h.dzbar(0)
    a = 1j * ChartFunction(dh.terms, max(dh.denom - 2, 0))
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


def _dd_sum(*pairs):
    """Sum of (hi, lo) pairs as one pair: error-free on the hi parts.

    Logs are carried as such pairs, whose sum holds ~32 digits, so a pairing
    stays exact to rounding although its log is a difference of terms of
    size N log N.
    """
    hi, lo = pairs[0]
    for h, l in pairs[1:]:
        # Knuth's TwoSum: s + e == hi + h exactly
        s = hi + h
        hv = s - hi
        e = (hi - (s - hv)) + (h - hv)
        hi, lo = s, lo + (e + l)
    return hi, lo


def _dd_exp(pair):
    """exp(hi + lo) for |lo| << 1, to a few ulp."""
    hi, lo = pair
    return np.exp(hi) * (1.0 + lo)


class _LogFactorials:
    """log k! as (hi, lo) arrays with hi + lo exact to ~32 digits.

    One table per process, computed in 40-digit `decimal` arithmetic and grown
    to the largest k asked for; `decimal` is imported on the first growth.
    """

    def __init__(self):
        self.hi = self.lo = np.zeros(1)
        self._top = None  # log of the last tabled factorial, as a Decimal

    def __call__(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The table, covering k = 0..n at least."""
        if n >= len(self.hi):
            from decimal import Context, Decimal

            ctx = Context(prec=40)
            top = Decimal(0) if self._top is None else self._top
            hi, lo = [], []
            for k in range(len(self.hi), n + 1):
                top = ctx.add(top, ctx.ln(Decimal(k)))
                h = float(top)
                hi.append(h)
                lo.append(float(ctx.subtract(top, Decimal(h))))
            self._top = top
            self.hi = np.concatenate([self.hi, hi])
            self.lo = np.concatenate([self.lo, lo])
        return self.hi, self.lo


_log_factorials = _LogFactorials()
# log pi = 1.14472988584940017414342735135305871164729481291531... as a pair
_LOG_PI = (1.1447298858494002, 1.0265951162707826e-17)


def _log_beta(N: int, a: np.ndarray, m):
    """log a! (N+m-a)! / (N+m+1)! as a (hi, lo) pair; pi times this Beta value
    is the level-N pairing of z^a zbar^b/(1+w)^m with z^(a-b)."""
    hi, lo = _log_factorials(N + int(np.max(m, initial=0)) + 1)
    top = N + m + 1
    return _dd_sum((hi[a], lo[a]), (hi[top - 1 - a], lo[top - 1 - a]), (-hi[top], -lo[top]))


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
    return float(np.sum(c * _dd_exp(_log_beta(0, a, m))).real)


class SectionBasis:
    """Level-N holomorphic sections in the orthonormal basis e_k = z^k/||z^k||.

    Grid-free: every pairing of a section with a chart function is the
    closed-form Beta integral of the module docstring.  Each matrix entry is
    formed as exp(log Beta - log||z^j|| - log||z^k||), so entries stay O(1)
    even at levels where ||z^k||^2 itself underflows a double; the log is
    summed from (hi, lo) pairs with error-free two-sums, so the entry is
    exact to rounding at every level.
    """

    def __init__(self, N: int):
        self.N = N
        # ||z^k||^2 = pi k! (N-k)! / (N+1)!; halving a pair is exact
        hi, lo = _dd_sum(_LOG_PI, _log_beta(N, np.arange(N + 1), 0))
        self.log_norms = (0.5 * hi, 0.5 * lo)

    @property
    def dim(self) -> int:
        return self.N + 1

    def _pairings(self, terms, log_scale, ncols: int) -> np.ndarray:
        """Matrix <e_j, f_k> * exp(-log_scale[k]) for f_k the sum of the flat terms
        (k, a, b, m, c) c z^a zbar^b/(1+w)^m; `log_scale` is a (hi, lo) pair."""
        N = self.N
        k, a, b, m, c = terms
        j = a - b
        keep = (j >= 0) & (j <= N)
        k, a, j, m, c = k[keep], a[keep], j[keep], m[keep], c[keep]
        if np.any(a > N + m):
            raise ValueError(f"pairing with level-{N} sections diverges")
        (norm_hi, norm_lo), (scale_hi, scale_lo) = self.log_norms, log_scale
        logv = _dd_sum(
            _LOG_PI,
            _log_beta(N, a, m),
            (-norm_hi[j], -norm_lo[j]),
            (-scale_hi[k], -scale_lo[k]),
        )
        out = np.zeros((N + 1, ncols), dtype=complex)
        np.add.at(out, (j, k), c * _dd_exp(logv))
        return out

    def coeffs(self, f: ChartFunction) -> np.ndarray:
        """Coefficients <e_k, f> against the orthonormal monomial sections."""
        return self._pairings(_flat_terms([f]), (np.zeros(1), np.zeros(1)), 1)[:, 0]

    def operator_matrix(self, a, q) -> np.ndarray:
        """Matrix <e_j, A e_k> of A z^k = k a z^(k-1) + q z^k, for chart functions
        or constants a and q, paired from their terms at every k at once."""
        fs = [f if isinstance(f, ChartFunction) else ChartFunction({(0, 0): f}) for f in (a, q)]
        owner, s, t, m, c = _flat_terms(fs)
        # c z^s zbar^t/(1+w)^m in a gives k c z^(s+k-1) zbar^t/(1+w)^m at k >= 1
        term, k = np.nonzero((owner[:, None] == 1) | (np.arange(self.dim) > 0))
        in_a = owner[term] == 0
        terms = (k, s[term] + k - in_a, t[term], m[term], c[term] * np.where(in_a, k, 1))
        return self._pairings(terms, self.log_norms, self.dim)

    def toeplitz(self, f: ChartFunction) -> np.ndarray:
        """Toeplitz compression <e_j, f e_k> of multiplication by f."""
        return self.operator_matrix(0, f)


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
        self.norms = _dd_exp(self.log_norms)
        self.grid = grid
        self.sqrtw = np.sqrt(grid.weights * (1.0 + grid.u) ** (-N))
        self.frame = self.frame_at(grid.points, 1.0)
        gram = self.frame.conj().T @ self.frame
        defect = float(np.max(np.abs(gram - np.eye(N + 1))))
        if not defect <= _GRAM_TOL:
            raise ValueError(
                f"level N={N}: grid frame Gram deviates from the identity by "
                f"{defect:.3g} (tolerance {_GRAM_TOL:g})"
            )

    def frame_at(
        self, z: np.ndarray, c, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Half-weighted frame columns c(x) z(x)^k / ||z^k||, k = 0..N.

        `z` holds one point per grid point (the grid itself, or its image
        under a flow) and `c` the matching phase factors (1 on the grid
        itself).  Column k is built
        as a contiguous row from column k-1 times z ||z^(k-1)|| / ||z^k||;
        the (points, dim) frame is the transposed view.  The rows are written
        into `out`, a complex (dim, points) array, when one is given, so the
        frame returned is then a view of `out`.
        """
        ratio = self.norms[:-1] / self.norms[1:]
        rows = np.empty((self.dim, len(z)), dtype=complex) if out is None else out
        rows[0] = self.sqrtw * c / self.norms[0]
        for k in range(1, self.dim):
            np.multiply(rows[k - 1], ratio[k - 1] * z, out=rows[k])
        return rows.T

    # Closed form, as in the base class; bound here as well so that
    # per-class instrumentation (perfbench/tracing.py) finds it on SectionSpace.
    coeffs = SectionBasis.coeffs

    def compress_mult(self, values: np.ndarray) -> np.ndarray:
        """Toeplitz compression of multiplication by a real grid function."""
        return self.frame.conj().T @ (values[:, None] * self.frame)

def compress_generator(ham: HamiltonianField, space: SectionBasis) -> np.ndarray:
    """Matrix <e_j, G e_k> of the compressed prequantum generator (closed form)."""
    return space.operator_matrix(ham.a, _phase_rate(ham, space.N))


def eval_batch(cfs: list[ChartFunction], z: np.ndarray) -> list[np.ndarray]:
    """Evaluate many chart functions at once, sharing the power tables.

    Saves the repeated z**a work when the same point set is hit by a family
    of functions (the flow field and phase rate at each stage of time
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


def characteristic_rhs(ham: HamiltonianField, N: int, inverse: bool):
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


def _phase_rate(ham: HamiltonianField, N: int) -> ChartFunction:
    """q = -N a zbar/(1+w) + i N h, the source term along characteristics."""
    return (-float(N)) * (ham.a * _ZBAR_OVER_1PW) + (1j * N) * ham.h


def _xi(a: ChartFunction, f: ChartFunction) -> ChartFunction:
    """xi f = a df/dz + conj(a) df/dzbar: the flow field a acting on f."""
    return a * f.dz(0) + a.conj() * f.dzbar(0)


def _bracket(g2: tuple, g1: tuple) -> tuple:
    """(A, Q) of [G2, G1] for generators g_i = (a_i, q_i), as in the module docstring."""
    (a2, q2), (a1, q1) = g2, g1
    return _xi(a2, a1) - _xi(a1, a2), _xi(a2, q1) - _xi(a1, q2)


def pullback_frame(
    ham: HamiltonianField, space: SectionSpace, t: float, n_steps: int = 32
) -> np.ndarray:
    """Columns V_t^{-1} e_k sampled on the grid (half-weighted).

    (V_t s)(x) = c(x) s(psi_t(x)) with c = exp(int_0^t q(psi_sigma(x)) dsigma);
    for V_t^{-1} the characteristics run backward and the phase enters with
    the opposite sign.  A negative t gives V_{|t|} e_k, since V_{-t} = V_t^{-1}.
    The columns span the range of Pi_t = V_t^{-1} Pi_0 V_t, and their Gram
    stays the identity up to integration error because V_t is unitary.
    """
    if t == 0.0:
        return space.frame.copy()
    points = space.grid.points
    rhs = characteristic_rhs(ham, space.N, inverse=t > 0)
    y0 = np.stack([points.astype(complex), np.ones(len(points), dtype=complex)])
    y = OdeStepper(dt=abs(t) / max(n_steps, 1)).propagate(rhs, 0.0, y0, abs(t))
    return space.frame_at(*y)


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

    Builds Pi [G2, G1] Pi - [Pi G2 Pi, Pi G1 Pi] on the holomorphic range,
    with [G2, G1] in the closed form (A, Q) of the module docstring; every
    entry is a closed-form pairing, so entries carry rounding error only.
    """
    g1, g2 = ((h.a, _phase_rate(h, space.N)) for h in (h1, h2))
    b1, b2 = space.operator_matrix(*g1), space.operator_matrix(*g2)
    return space.operator_matrix(*_bracket(g2, g1)) - (b2 @ b1 - b1 @ b2)


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
    scalar, deviation = curv.scalar_fit()
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
