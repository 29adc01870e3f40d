"""Exact operator algebra on truncated Bargmann-Fock spaces.

States at level N are f(z) exp(-N|z|^2 / 2) with f a holomorphic polynomial
in n variables.  All operators below are computed symbolically on polynomial
prefactors, so matrix entries are exact up to floating-point rounding; the
truncation degree D only controls which monomial columns get materialized.

The key ingredient is the reproducing-kernel projection onto holomorphic
prefactors, which acts on monomials by

    zbar^beta f(z)  ->  N^{-|beta|} d^beta f / dz^beta,

together with the derivation along the Hamiltonian vector field
xi_H = 2i sum_j (dH/dz_j d/dzbar_j - dH/dzbar_j d/dz_j) applied to full
states (Gaussian factor included).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .linalg import compressed_curvature
from .symplectic import QuadraticHamiltonian, omega_pairing, standard_complex_structure

__all__ = [
    "BiPolynomial",
    "DegreeOverflowError",
    "hamiltonian_bipoly",
    "FockTruncation",
    "FockOperator",
    "project",
    "lie_derivative",
    "lie_matrix",
    "curvature_operator",
    "bargmann_generator",
    "flat_curvature_operator",
    "verify_scalar_curvature",
]


class DegreeOverflowError(ValueError):
    """Raised when a requested operation needs degrees beyond the truncation."""


class BiPolynomial:
    """Polynomial in (z_1..z_n, zbar_1..zbar_n) with complex coefficients.

    Immutable by convention; arithmetic returns new instances.  Terms are
    stored sparsely as {(alpha, beta): coeff} with multi-index tuples.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        self.terms = {}
        if terms:
            for (alpha, beta), c in terms.items():
                if c != 0:
                    self.terms[(tuple(alpha), tuple(beta))] = complex(c)

    @classmethod
    def monomial(cls, n: int, alpha, beta=None, coeff: complex = 1.0) -> "BiPolynomial":
        alpha = tuple(alpha)
        beta = tuple(beta) if beta is not None else (0,) * n
        return cls(n, {(alpha, beta): coeff})

    @classmethod
    def zero(cls, n: int) -> "BiPolynomial":
        return cls(n)

    def __add__(self, other: "BiPolynomial") -> "BiPolynomial":
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0.0) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return BiPolynomial(self.n, out)

    def __sub__(self, other: "BiPolynomial") -> "BiPolynomial":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "BiPolynomial":
        if scalar == 0:
            return BiPolynomial.zero(self.n)
        return BiPolynomial(
            self.n, {key: scalar * c for key, c in self.terms.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, BiPolynomial):
            return other * self
        out: dict = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (
                    tuple(x + y for x, y in zip(a1, a2)),
                    tuple(x + y for x, y in zip(b1, b2)),
                )
                s = out.get(key, 0.0) + c1 * c2
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return BiPolynomial(self.n, out)

    def dz(self, j: int) -> "BiPolynomial":
        out = {}
        for (alpha, beta), c in self.terms.items():
            if alpha[j]:
                a = list(alpha)
                a[j] -= 1
                out[(tuple(a), beta)] = out.get((tuple(a), beta), 0.0) + c * alpha[j]
        return BiPolynomial(self.n, out)

    def dzbar(self, j: int) -> "BiPolynomial":
        out = {}
        for (alpha, beta), c in self.terms.items():
            if beta[j]:
                b = list(beta)
                b[j] -= 1
                out[(alpha, tuple(b))] = out.get((alpha, tuple(b)), 0.0) + c * beta[j]
        return BiPolynomial(self.n, out)

    def conj(self) -> "BiPolynomial":
        return BiPolynomial(
            self.n, {(beta, alpha): c.conjugate() for (alpha, beta), c in self.terms.items()}
        )

    @property
    def holo_degree(self) -> int:
        return max((sum(a) for (a, _b) in self.terms), default=0)

    @property
    def antiholo_degree(self) -> int:
        return max((sum(b) for (_a, b) in self.terms), default=0)

    def is_holomorphic(self, tol: float = 0.0) -> bool:
        return all(sum(b) == 0 or abs(c) <= tol for (_a, b), c in self.terms.items())

    def value(self, z: np.ndarray) -> complex:
        """Evaluate at a point z in C^n (zbar taken as the conjugate)."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        zb = z.conj()
        tot = 0.0 + 0.0j
        for (alpha, beta), c in self.terms.items():
            term = c
            for j in range(self.n):
                term *= z[j] ** alpha[j] * zb[j] ** beta[j]
            tot += term
        return tot

    def __repr__(self):
        return f"BiPolynomial(n={self.n}, nterms={len(self.terms)})"


def hamiltonian_bipoly(h: QuadraticHamiltonian) -> BiPolynomial:
    """Rewrite a real quadratic Hamiltonian in the (z, zbar) variables."""
    n = h.n
    s = h.form_matrix()
    coords = []
    for j in range(n):
        e = [0] * n
        e[j] = 1
        zj = BiPolynomial.monomial(n, e, coeff=0.5) + BiPolynomial.monomial(
            n, [0] * n, e, coeff=0.5
        )
        yj = BiPolynomial.monomial(n, e, coeff=-0.5j) + BiPolynomial.monomial(
            n, [0] * n, e, coeff=0.5j
        )
        coords.append((zj, yj))
    vs = [coords[j][0] for j in range(n)] + [coords[j][1] for j in range(n)]
    out = BiPolynomial.zero(n)
    for a in range(2 * n):
        for b in range(2 * n):
            if s[a, b]:
                out = out + s[a, b] * (vs[a] * vs[b])
    return out


@dataclass(frozen=True)
class FockTruncation:
    """Monomial basis of holomorphic prefactors up to total degree D.

    The orthonormal basis vectors are e_alpha = z^alpha sqrt(N^|alpha|/alpha!)
    (one common measure constant dropped); the basis list is ordered by total
    degree, then lexicographically, so leading blocks are the low-degree
    subspaces.
    """

    n: int
    N: int
    D: int
    _basis: list = field(init=False, repr=False, compare=False)
    _pos: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1 or self.N < 1 or self.D < 0:
            raise ValueError("need n >= 1, N >= 1, D >= 0")
        idx = [
            alpha
            for alpha in product(range(self.D + 1), repeat=self.n)
            if sum(alpha) <= self.D
        ]
        idx.sort(key=lambda a: (sum(a), a))
        object.__setattr__(self, "_basis", idx)
        object.__setattr__(self, "_pos", {a: i for i, a in enumerate(idx)})

    def basis(self) -> list[tuple[int, ...]]:
        return list(self._basis)

    @property
    def dim(self) -> int:
        return len(self._basis)

    def dim_up_to(self, degree: int) -> int:
        return sum(1 for a in self._basis if sum(a) <= degree)

    def index(self, alpha) -> int:
        return self._basis.index(tuple(alpha))

    def norm_constant(self, alpha) -> float:
        """sqrt(N^|alpha| / alpha!) normalizing z^alpha."""
        alpha = tuple(alpha)
        fact = 1.0
        for a in alpha:
            fact *= math.factorial(a)
        return math.sqrt(self.N ** sum(alpha) / fact)


def project(f: BiPolynomial, N: int) -> BiPolynomial:
    """Orthogonal projection onto holomorphic prefactors at level N.

    Acts termwise by zbar^beta z^alpha -> N^{-|beta|} d^beta z^alpha, the
    coherent-state reproducing identity for the Gaussian weight.
    """
    out: dict = {}
    for (alpha, beta), c in f.terms.items():
        coeff = c
        ok = True
        new_alpha = list(alpha)
        for j, b in enumerate(beta):
            if b == 0:
                continue
            if new_alpha[j] < b:
                ok = False
                break
            coeff *= math.perm(new_alpha[j], b) / N**b
            new_alpha[j] -= b
        if not ok or coeff == 0:
            continue
        key = (tuple(new_alpha), (0,) * f.n)
        s = out.get(key, 0.0) + coeff
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = s
    return BiPolynomial(f.n, out)


def _lie_state(h: BiPolynomial, g: BiPolynomial, N: int) -> BiPolynomial:
    """Derivation along xi_H applied to g(z, zbar) exp(-N|z|^2/2), as a prefactor.

    xi_H = 2i sum_j (H_{z_j} d_{zbar_j} - H_{zbar_j} d_{z_j}); the Gaussian
    contributes the multiplication term iN sum_j (zbar_j H_{zbar_j} - z_j H_{z_j}).
    """
    n = h.n
    out = BiPolynomial.zero(n)
    for j in range(n):
        hz = h.dz(j)
        hzb = h.dzbar(j)
        out = out + 2j * (hz * g.dzbar(j)) - 2j * (hzb * g.dz(j))
        zj = BiPolynomial.monomial(n, [1 if k == j else 0 for k in range(n)])
        zbj = BiPolynomial.monomial(n, [0] * n, [1 if k == j else 0 for k in range(n)])
        out = out + 1j * N * ((zbj * hzb) * g) - 1j * N * ((zj * hz) * g)
    return out


def lie_derivative(h: BiPolynomial, f: BiPolynomial, trunc: FockTruncation) -> BiPolynomial:
    """Apply the Hamiltonian derivation to a holomorphic prefactor f.

    The result is a bipolynomial (not yet projected).  f must fit in the
    truncation with two degrees to spare, since quadratic H raises the
    holomorphic degree by up to two.
    """
    if not f.is_holomorphic():
        raise ValueError("lie_derivative expects a holomorphic prefactor")
    if f.holo_degree > trunc.D - 2:
        raise DegreeOverflowError(
            f"prefactor degree {f.holo_degree} exceeds D - 2 = {trunc.D - 2}"
        )
    return _lie_state(h, f, trunc.N)


@dataclass(frozen=True)
class FockOperator:
    """Matrix of an operator in the orthonormal monomial basis.

    Columns are exact for input monomials of total degree <= valid_degree and
    identically zero beyond, reflecting that compositions of degree-raising
    operators are only faithful on a margin inside the truncation.
    """

    matrix: np.ndarray
    trunc: FockTruncation
    valid_degree: int

    def restrict(self, degree: int | None = None) -> np.ndarray:
        """Square block on the subspace of degree <= `degree` (default: valid)."""
        degree = self.valid_degree if degree is None else degree
        k = self.trunc.dim_up_to(degree)
        return self.matrix[:k, :k]

    def columns(self, degree: int | None = None) -> np.ndarray:
        """All rows of the exact columns (degree <= `degree`)."""
        degree = self.valid_degree if degree is None else degree
        k = self.trunc.dim_up_to(degree)
        return self.matrix[:, :k]

    def scalar_fit(self) -> tuple[complex, float]:
        """Fit the exact columns to scalar * identity.

        Returns the scalar (mean diagonal entry) and the Hilbert-Schmidt
        distance of the columns from scalar * identity, divided by sqrt of
        the number of columns.
        """
        cols = self.columns()
        k = cols.shape[1]
        scalar = complex(np.trace(cols) / k)
        deviation = np.linalg.norm(cols - scalar * np.eye(*cols.shape)) / math.sqrt(k)
        return scalar, float(deviation)


def _to_basis_column(p: BiPolynomial, trunc: FockTruncation, in_alpha) -> np.ndarray:
    """Coefficients of p in the e_alpha basis, for unit input e_{in_alpha}."""
    pos = trunc._pos
    col = np.zeros(len(pos), dtype=complex)
    c_in = trunc.norm_constant(in_alpha)
    for (alpha, beta), c in p.terms.items():
        if sum(beta):
            raise ValueError("projected result expected to be holomorphic")
        if alpha not in pos:
            raise DegreeOverflowError(
                f"output degree {sum(alpha)} exceeds truncation D = {trunc.D}"
            )
        col[pos[alpha]] += c * c_in / trunc.norm_constant(alpha)
    return col


def lie_matrix(h: BiPolynomial, trunc: FockTruncation) -> FockOperator:
    """Matrix of (project o lie_derivative) for columns of degree <= D - 2."""
    basis = trunc.basis()
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for i, alpha in enumerate(basis):
        if sum(alpha) > trunc.D - 2:
            break
        f = BiPolynomial.monomial(trunc.n, alpha)
        mat[:, i] = _to_basis_column(project(_lie_state(h, f, trunc.N), trunc.N), trunc, alpha)
    return FockOperator(mat, trunc, trunc.D - 2)


def _curvature_matrix(d1, d2, trunc: FockTruncation) -> FockOperator:
    """Columns of pi [D2, D1] pi - [pi D2 pi, pi D1 pi] for two derivations."""
    if trunc.D < 4:
        raise DegreeOverflowError("curvature columns need D >= 4")
    N = trunc.N
    alphas = trunc.basis()[: trunc.dim_up_to(trunc.D - 2)]

    def to_matrix(images):
        return np.column_stack(
            [_to_basis_column(project(g, N), trunc, a) for g, a in zip(images, alphas)]
        )

    cols = compressed_curvature(
        [BiPolynomial.monomial(trunc.n, a) for a in alphas],
        d1,
        d2,
        to_matrix,
        trunc.dim_up_to(trunc.D - 4),
    )
    mat = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    mat[:, : cols.shape[1]] = cols
    return FockOperator(mat, trunc, trunc.D - 4)


def curvature_operator(
    h1: BiPolynomial, h2: BiPolynomial, trunc: FockTruncation
) -> FockOperator:
    """Difference between the compressed commutator and the commutator of compressions.

    For Hamiltonian derivations L_i along xi_{H_i} and the holomorphic
    projection pi, builds

        pi [L_2, L_1] pi - [pi L_2 pi, pi L_1 pi]

    column by column in exact polynomial arithmetic.  This measures the
    curvature of the family of holomorphic subspaces in the directions that
    H_1 and H_2 generate; columns are exact for inputs of degree <= D - 4.
    """
    N = trunc.N
    return _curvature_matrix(
        lambda f: _lie_state(h1, f, N), lambda f: _lie_state(h2, f, N), trunc
    )


def bargmann_generator(h: BiPolynomial, f: BiPolynomial, N: int) -> BiPolynomial:
    """Prequantum generator of the flat model applied to a prefactor f.

    For the Gaussian weight exp(-N|z|^2), the symplectic form with
    i_xi omega = -dH that the weight prequantizes is 2 dx dy per variable,
    giving the flow coefficient a_j = i dH/dzbar_j and

        G f = sum_j [a_j (d/dz_j - N zbar_j) + conj-part d/dzbar_j] f + i N H f.

    The rotation H = |z|^2 acts diagonally: G z^k = i k z^k.
    """
    n = h.n
    out = (1j * N) * (h * f)
    for j in range(n):
        a = 1j * h.dzbar(j)
        abar = -1j * h.dz(j)
        zbj = BiPolynomial.monomial(n, [0] * n, [1 if k == j else 0 for k in range(n)])
        out = out + a * (f.dz(j) - N * (zbj * f)) + abar * f.dzbar(j)
    return out


def flat_curvature_operator(
    h1: BiPolynomial, h2: BiPolynomial, trunc: FockTruncation
) -> FockOperator:
    """Curvature columns with the flat prequantum generators in place of the
    bare Hamiltonian derivations (the multiplication term i N H included)."""
    N = trunc.N
    return _curvature_matrix(
        lambda f: bargmann_generator(h1, f, N),
        lambda f: bargmann_generator(h2, f, N),
        trunc,
    )


def verify_scalar_curvature(
    q1: QuadraticHamiltonian,
    q2: QuadraticHamiltonian,
    trunc: FockTruncation,
    sym_tol: float = 1e-10,
) -> dict:
    """Measure how close the curvature along two p-directions is to a scalar.

    Both Hamiltonians must have symmetric generators (pure deformation
    directions).  Returns the fitted scalar, the Hilbert-Schmidt deviation of
    the curvature columns from scalar * identity (normalized by sqrt of the
    subspace dimension), the invariant pairing tr(X1 J0 X2), and their ratio.
    """
    for q in (q1, q2):
        x = q.generator
        if np.max(np.abs(x - x.T)) > sym_tol * max(1.0, np.max(np.abs(x))):
            raise ValueError("expected a deformation direction (symmetric generator)")
    curv = curvature_operator(hamiltonian_bipoly(q1), hamiltonian_bipoly(q2), trunc)
    scalar, deviation = curv.scalar_fit()
    omega = omega_pairing(
        q1.generator, q2.generator, standard_complex_structure(q1.n)
    )
    ratio = scalar / omega if abs(omega) > 1e-12 * max(1.0, abs(scalar)) else None
    return {
        "scalar": scalar,
        "deviation": deviation,
        "omega": omega,
        "ratio": ratio,
        "dim": trunc.dim_up_to(curv.valid_degree),
    }
