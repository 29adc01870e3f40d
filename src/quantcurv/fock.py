"""Exact operator algebra on truncated Bargmann-Fock spaces.

States at level N are f(z) exp(-N|z|^2 / 2) with f a holomorphic polynomial
in n variables.  All operators below are computed symbolically on polynomial
prefactors, so matrix entries are exact up to floating-point rounding; the
truncation degree D only controls which monomial columns get materialized.
Polynomials in (z, zbar) are `ChartFunction`s with denominator power 0, keyed
by flat exponents (alpha, beta) as the `quantcurv.toeplitz` docstring says.

The key ingredient is the reproducing-kernel projection onto holomorphic
prefactors, which acts on monomials by

    zbar^beta f(z)  ->  N^{-|beta|} d^beta f / dz^beta,

together with two operators on full states f exp(-N|z|^2/2): the
derivation L_H along xi_H = 2i sum_j (dH/dz_j d/dzbar_j - dH/dzbar_j d/dz_j)
and the flat prequantum generator G_H.  The Gaussian weight prequantizes
2 dx dy per variable with i_xi omega = -dH, so G_H has the flow coefficient
a_j = i dH/dzbar_j and G_H f = sum_j [a_j (d/dz_j - N zbar_j) f + conj-part
df/dzbar_j] + i N H f; the rotation H = |z|^2 acts as G z^k = i k z^k.

On holomorphic prefactors both act as m f + sum_j a_j df/dz_j.
Integrating conj(g) a_j df/dz_j against exp(-N|z|^2) by parts in z_j
(conj(g) is antiholomorphic) gives

    pi(a_j df/dz_j) = T_{N zbar_j a_j - d a_j/dz_j} f,    T_s f = pi(s f),

so with Delta = sum_j d^2/dz_j dzbar_j and E multiplying z^alpha zbar^beta
by |alpha| + |beta|, pi G_H pi is T of sigma_G(H) = i (N H - Delta H)
(m = i N H - N sum_j a_j zbar_j), and pi L_H pi is T of
sigma_L(H) = 2i Delta H - i N E H (a_j = -2i dH/dzbar_j,
m = i N sum_j (zbar_j dH/dzbar_j - z_j dH/dz_j)).  Both close under the
Poisson bracket P(f, g) = i sum_j (df/dzbar_j dg/dz_j - df/dz_j dg/dzbar_j):
[G_H2, G_H1] = G_{-P(H1, H2)} and [L_H2, L_H1] = L_{2 P(H1, H2)}.

So a curvature matrix is the Toeplitz matrices of three symbols, each formed
in one pass over the terms whatever D.  A term c z^gamma zbar^beta meets the
column z^alpha as c z^e zbar^beta, e = alpha + gamma, which projects to
c N^{-|beta|} e!/(e - beta)! z^(e - beta); the log-space Toeplitz pass of
`quantcurv.toeplitz` forms it as the Gaussian pairing e!/N^|e| over the norms
of z^(e - beta) and z^alpha, exact to rounding at any N: `FockTruncation` is a
basis of that module's protocol.  Curvatures come in batches of pairs from
its curvature routine, `toeplitz.curvatures`, fed the symbols above, P and the
column margins (an operator of order 2 or 4 keeps the columns of degree
<= D - 2 or D - 4 in the truncation): one pass for the distinct Hamiltonians,
one for the brackets of all pairs, each matrix the same to the bit as alone.
A batch is returned as that routine's complex stack, one block of
`columns(4)` columns per pair, and `scalar_fit` reduces a block to its scalar.
The projection itself, applied term by term, is a test oracle
(`tests/fock_oracle.py`): nothing here forms a projected polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .symplectic import QuadraticHamiltonian, omega_pairing, standard_complex_structure
from .toeplitz import ChartFunction, curvatures, dd_log, dd_sum, dd_times, log_factorials

__all__ = [
    "DegreeOverflowError",
    "FOCK_DEGREE_MAX",
    "FOCK_LEVEL_MAX",
    "FOCK_PAIRS_MAX",
    "DEFORMATION_SYM_TOL",
    "hamiltonian_bipoly",
    "FockTruncation",
    "curvature_operator",
    "flat_curvature_operator",
    "scalar_fit",
    "verify_scalar_curvature",
]


class DegreeOverflowError(ValueError):
    """Raised when a requested operation needs degrees beyond the truncation."""


# Bounds of a bargmann-curvature config.  D: a run at n = 2 costs ~D^6, 6.8-8.7 s
# and a 172 MB tracemalloc peak at D = 40 (`_run_bargmann` in a fresh
# interpreter, 2 vCPU, one BLAS thread; the peak is one identity table's batch
# of matrices), and its deviations (<= 2.1e-11) stay 4x inside the default
# tol_identity.  N: entries are formed in log space, so no power of N
# overflows (those deviations read the same at N = 5e7 and 1e9); the bound
# keeps the value configs have always been held to.
FOCK_DEGREE_MAX = 40
FOCK_LEVEL_MAX = 50_000_000
# Bound of a bargmann-curvature config's n_random_pairs.  The pairs are one
# curvature batch, which holds every pair's matrices: ~80 KB a pair at
# D = 40, so a run at n = 1 with 1000 pairs takes 1.4-1.8 s at a 91 MB peak,
# measured as above.
FOCK_PAIRS_MAX = 1000
# Relative asymmetry up to which `verify_scalar_curvature` takes a generator
# for a deformation direction (a symmetric sp(n, R) matrix).
DEFORMATION_SYM_TOL = 1e-10

# perfbench/tracing.py instruments `fock.BiPolynomial.__mul__`; the name stays
# bound to the one symbolic algebra until that tracer is changed.
BiPolynomial = ChartFunction


# Coefficients of x_j = (z_j + zbar_j)/2 and y_j = (z_j - zbar_j)/(2i) on
# (z_j, zbar_j).
_REAL_PARTS = ((0.5 + 0j, 0.5 + 0j), (-0.5j, 0.5j))


def hamiltonian_bipoly(h: QuadraticHamiltonian) -> ChartFunction:
    """Rewrite a real quadratic Hamiltonian in the (z, zbar) variables.

    One pass over the entries S_ab of the form matrix, with v = (x, y):
    each product v_a v_b is summed into its up to four (z, zbar) terms, then
    scaled by S_ab and added, so every coefficient is summed in the order,
    and with the roundings, of the products v_a * v_b of chart functions.
    """
    n = h.n
    out: dict = {}
    for a, row in enumerate(h.form_matrix().tolist()):
        for b, s_ab in enumerate(row):
            if not s_ab:
                continue
            prod: dict = {}
            for side_a, ca in enumerate(_REAL_PARTS[a // n]):
                for side_b, cb in enumerate(_REAL_PARTS[b // n]):
                    key = [0] * (2 * n)
                    key[a % n + side_a * n] += 1
                    key[b % n + side_b * n] += 1
                    key = tuple(key)
                    prod[key] = prod.get(key, 0.0) + ca * cb
            for key, c in prod.items():
                if c:
                    total = out.get(key, 0.0) + s_ab * c
                    if total:
                        out[key] = total
                    else:
                        out.pop(key, None)
    return ChartFunction(out)


@dataclass(frozen=True)
class FockTruncation:
    """Monomial basis of holomorphic prefactors up to total degree D.

    The orthonormal basis vectors are e_alpha = z^alpha sqrt(N^|alpha|/alpha!)
    for the Gaussian probability measure, where <z^(e-beta), z^e zbar^beta> =
    e!/N^|e|; the basis list is ordered by total degree, then lexicographically,
    so leading blocks are the low-degree subspaces.
    """

    n: int
    N: int
    D: int
    exps: np.ndarray = field(init=False, repr=False, compare=False)
    log_norms: tuple = field(init=False, repr=False, compare=False)
    _rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1 or self.N < 1 or self.D < 0:
            raise ValueError("need n >= 1, N >= 1, D >= 0")
        idx = [
            alpha
            for alpha in product(range(self.D + 1), repeat=self.n)
            if sum(alpha) <= self.D
        ]
        idx.sort(key=lambda a: (sum(a), a))
        exps = np.array(idx, dtype=np.int64)
        rows = np.full((self.D + 1,) * self.n, -1)  # dense exponent -> row lookup
        rows[tuple(exps.T)] = np.arange(len(idx))
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "_rows", rows)
        # ||z^alpha||^2 = <z^alpha, z^alpha>; halving a pair is exact
        hi, lo = self.log_pairing(exps, None, None)
        object.__setattr__(self, "log_norms", (0.5 * hi, 0.5 * lo))

    def basis(self) -> list[tuple[int, ...]]:
        return [tuple(alpha) for alpha in self.exps.tolist()]

    @property
    def dim(self) -> int:
        return len(self.exps)

    def dim_up_to(self, degree: int) -> int:
        """Number of basis monomials of total degree <= `degree`."""
        if degree < 0:
            return 0
        return math.comb(min(degree, self.D) + self.n, self.n)

    def log_pairing(self, e, _beta, _m):
        """log e!/N^|e| as a pair, the power of N a multiple of the pair log N."""
        hi, lo = log_factorials(int(e.max(initial=0)))
        n_hi, n_lo = dd_times(dd_log(self.N), e.sum(axis=1))
        return dd_sum(*((hi[x], lo[x]) for x in e.T), (-n_hi, -n_lo))

    def row(self, r):
        """Row of the image z^r; raises DegreeOverflowError past degree D."""
        degree = r.sum(axis=1).max(initial=0)
        if degree > self.D:
            raise DegreeOverflowError(f"output degree {degree} exceeds truncation D = {self.D}")
        return self._rows[tuple(r.T)]

    def columns(self, order: int) -> int:
        """Number of leading columns, those of degree <= D - order, whose
        images under an operator of that order stay in the truncation."""
        if order > self.D:
            raise DegreeOverflowError(f"an operator of order {order} needs D >= {order}")
        return self.dim_up_to(self.D - order)


def _symbol(h: ChartFunction, weight, lap: complex) -> ChartFunction:
    """weight(|alpha| + |beta|) c z^alpha zbar^beta for each term of h, plus
    lap Delta h, in one pass: Delta takes c z^alpha zbar^beta to
    alpha_j beta_j c z^(alpha - e_j) zbar^(beta - e_j) for each j."""
    n = h.nvars
    out: dict = {}
    for key, c in h.terms.items():
        out[key] = out.get(key, 0.0) + weight(sum(key)) * c
        for j in range(n):
            if p := key[j] * key[n + j]:
                low = tuple(k - (i in (j, n + j)) for i, k in enumerate(key))
                out[low] = out.get(low, 0.0) + lap * p * c
    return ChartFunction(out)


def _generator_symbol(h: ChartFunction):
    """N -> sigma_G(h) = i (N h - Delta h): pi G_h pi is its Toeplitz operator."""
    return lambda N: _symbol(h, lambda _degree: 1j * N, -1j)


def _lie_symbol(h: ChartFunction):
    """N -> sigma_L(h) = 2i Delta h - i N E h: pi L_h pi is its Toeplitz operator."""
    return lambda N: _symbol(h, lambda degree: -1j * N * degree, 2j)


def _poisson(f: ChartFunction, g: ChartFunction, scale: complex) -> ChartFunction:
    """scale P(f, g), P(f, g) = i sum_j (df/dzbar_j dg/dz_j - df/dz_j dg/dzbar_j),
    in one pass over pairs of terms: for each j both products of a term pair
    land on the key k1 + k2 - e_j - e_(n+j)."""
    n = f.nvars
    out: dict = {}
    for k1, c1 in f.terms.items():
        for k2, c2 in g.terms.items():
            for j in range(n):
                if p := k1[n + j] * k2[j] - k1[j] * k2[n + j]:
                    key = tuple(a + b - (i in (j, n + j)) for i, (a, b) in enumerate(zip(k1, k2)))
                    out[key] = out.get(key, 0.0) + scale * 1j * p * c1 * c2
    return ChartFunction(out)


def scalar_fit(cols: np.ndarray) -> tuple[complex, float]:
    """Fit curvature columns (dim x k) to scalar * identity.

    Returns the scalar (mean diagonal entry) and the Hilbert-Schmidt
    distance of the columns from scalar * identity, divided by sqrt(k).
    """
    k = cols.shape[1]
    scalar = complex(np.trace(cols) / k)
    deviation = np.linalg.norm(cols - scalar * np.eye(*cols.shape)) / math.sqrt(k)
    return scalar, float(deviation)


def curvature_operator(pairs: list, trunc: FockTruncation) -> np.ndarray:
    """Difference between the compressed commutator and the commutator of
    compressions, for each pair (H_1, H_2) in `pairs`.

    For Hamiltonian derivations L_i along xi_{H_i} and the holomorphic
    projection pi, builds

        pi [L_2, L_1] pi - [pi L_2 pi, pi L_1 pi]

    from the Toeplitz matrices of sigma_L(H_1), sigma_L(H_2) and
    sigma_L(2 P(H_1, H_2)), as the module docstring says.  This measures the
    curvature of the family of holomorphic subspaces in the directions that
    H_1 and H_2 generate.

    Returns the complex stack of shape (len(pairs), trunc.dim,
    trunc.columns(4)): a row for every basis vector and a column for each
    input monomial of degree <= D - 4, the margin inside the truncation on
    which the composed operators are exact; `m[: m.shape[1]]` is the square
    block on that subspace.  The pairs are one batch: a Hamiltonian passed
    as the same object in several pairs has its matrix built once, and the
    stack holds the columns of all its pairs at once.
    """
    ((curvs, _),) = curvatures(pairs, [trunc], _lie_symbol, lambda f, g: _poisson(f, g, 2.0))
    return curvs


def flat_curvature_operator(pairs: list, trunc: FockTruncation) -> np.ndarray:
    """Curvature columns with the flat prequantum generators in place of the
    bare Hamiltonian derivations (the multiplication term i N H included),
    batched over `pairs` and stacked as in `curvature_operator`."""
    ((curvs, _),) = curvatures(pairs, [trunc], _generator_symbol, lambda f, g: _poisson(f, g, -1.0))
    return curvs


def verify_scalar_curvature(pairs: list, trunc: FockTruncation) -> list[dict]:
    """Measure how close the curvature along pairs of p-directions is to a scalar.

    `pairs` holds pairs (q1, q2) of Hamiltonians with symmetric generators
    (pure deformation directions); all curvatures are one
    `curvature_operator` batch.  Returns, per pair, the fitted scalar, the
    Hilbert-Schmidt deviation of the curvature columns from scalar * identity
    (normalized by sqrt of the subspace dimension), the invariant pairing
    tr(X1 J0 X2), and their ratio.
    """
    bipolys = {}
    for q in (q for pair in pairs for q in pair):
        x = q.generator
        if np.max(np.abs(x - x.T)) > DEFORMATION_SYM_TOL * max(1.0, np.max(np.abs(x))):
            raise ValueError("expected a deformation direction (symmetric generator)")
        if id(q) not in bipolys:
            bipolys[id(q)] = hamiltonian_bipoly(q)
    curvs = curvature_operator(
        [(bipolys[id(q1)], bipolys[id(q2)]) for q1, q2 in pairs], trunc
    )
    out = []
    for (q1, q2), cols in zip(pairs, curvs):
        scalar, deviation = scalar_fit(cols)
        omega = omega_pairing(q1.generator, q2.generator, standard_complex_structure(q1.n))
        ratio = scalar / omega if abs(omega) > 1e-12 * max(1.0, abs(scalar)) else None
        out.append(
            {
                "scalar": scalar,
                "deviation": deviation,
                "omega": omega,
                "ratio": ratio,
                "dim": cols.shape[1],
            }
        )
    return out
