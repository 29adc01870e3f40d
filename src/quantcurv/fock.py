"""Exact operator algebra on truncated Bargmann-Fock spaces.

States at level N are f(z) exp(-N|z|^2 / 2) with f a holomorphic polynomial
in n variables.  All operators below are computed symbolically on polynomial
prefactors, so matrix entries are exact up to floating-point rounding; the
truncation degree D only controls which monomial columns get materialized.
Polynomials in (z, zbar) are `ChartFunction`s with denominator power 0, keyed
by flat exponents (alpha, beta) as the `quantcurv.sphere` docstring says.

The key ingredient is the reproducing-kernel projection onto holomorphic
prefactors, which acts on monomials by

    zbar^beta f(z)  ->  N^{-|beta|} d^beta f / dz^beta,

together with the derivation along the Hamiltonian vector field
xi_H = 2i sum_j (dH/dz_j d/dzbar_j - dH/dzbar_j d/dz_j) applied to full
states (Gaussian factor included).

Every operator applied to prefactors here, the derivation and the flat
prequantum generator alike, is first order with polynomial coefficients,
D f = m f + sum_j (a_j df/dz_j + b_j df/dzbar_j), and on holomorphic f it
is m f + sum_j a_j df/dz_j.  A term c z^gamma zbar^beta of m meets the
column z^alpha as c z^e zbar^beta with e = alpha + gamma (for a_j: alpha_j c
and e = alpha + gamma - e_j), which projects to c N^{-|beta|} e!/(e - beta)!
z^(e - beta); so each matrix is closed form, every column taking each term
at once (`FockTruncation.operator_matrix`).  The bracket [D2, D1] is first
order again; on holomorphic inputs its coefficients are

    M = X2 m1 - X1 m2,    A_j = X2 a1_j - X1 a2_j,

with X_i = sum_j (a_ij d/dz_j + b_ij d/dzbar_j) the vector-field part of
D_i, applied to the other operator's coefficients in one pass that does not
depend on D.  A curvature matrix is then three operator matrices per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from operator import add

import numpy as np

from .sphere import ChartFunction
from .symplectic import QuadraticHamiltonian, omega_pairing, standard_complex_structure

__all__ = [
    "DegreeOverflowError",
    "hamiltonian_bipoly",
    "FockTruncation",
    "FockOperator",
    "project",
    "curvature_operator",
    "flat_curvature_operator",
    "verify_scalar_curvature",
]


class DegreeOverflowError(ValueError):
    """Raised when a requested operation needs degrees beyond the truncation."""


# perfbench/tracing.py instruments `fock.BiPolynomial.__mul__`; the name stays
# bound to the one symbolic algebra until that tracer is changed.
BiPolynomial = ChartFunction


def hamiltonian_bipoly(h: QuadraticHamiltonian) -> ChartFunction:
    """Rewrite a real quadratic Hamiltonian in the (z, zbar) variables."""
    n = h.n
    s = h.form_matrix()
    xs, ys = [], []
    zero = (0,) * n
    for j in range(n):
        e = tuple(int(k == j) for k in range(n))
        xs.append(ChartFunction({e + zero: 0.5, zero + e: 0.5}))
        ys.append(ChartFunction({e + zero: -0.5j, zero + e: 0.5j}))
    vs = xs + ys
    out = ChartFunction()
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
    _norms: np.ndarray = field(init=False, repr=False, compare=False)
    _exps: np.ndarray = field(init=False, repr=False, compare=False)
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
        norms = [
            math.sqrt(self.N ** sum(a) / math.prod(math.factorial(k) for k in a))
            for a in idx
        ]
        exps = np.array(idx, dtype=np.int64)
        rows = np.full((self.D + 1,) * self.n, -1)  # dense exponent -> row lookup
        rows[tuple(exps.T)] = np.arange(len(idx))
        object.__setattr__(self, "_basis", idx)
        object.__setattr__(self, "_norms", np.array(norms))
        object.__setattr__(self, "_exps", exps)
        object.__setattr__(self, "_rows", rows)

    def basis(self) -> list[tuple[int, ...]]:
        return list(self._basis)

    @property
    def dim(self) -> int:
        return len(self._basis)

    def dim_up_to(self, degree: int) -> int:
        """Number of basis monomials of total degree <= `degree`."""
        if degree < 0:
            return 0
        return math.comb(min(degree, self.D) + self.n, self.n)

    def index(self, alpha) -> int:
        alpha = tuple(alpha)
        if len(alpha) == self.n and min(alpha) >= 0 and sum(alpha) <= self.D:
            return int(self._rows[alpha])
        raise ValueError(f"{alpha} is not in the truncation")

    def operator_matrix(self, m: ChartFunction, a: list, ncols: int) -> np.ndarray:
        """Matrix of z^alpha -> pi(m z^alpha + sum_j alpha_j a_j z^(alpha - e_j)).

        Rows are all basis vectors, columns the first `ncols`, both in the
        e_alpha basis; every column takes each term of m and a_j at once, as
        the module docstring says.  Raises DegreeOverflowError when an image
        leaves the truncation.
        """
        n = self.n
        terms = [(n, key, c) for key, c in m.terms.items()]
        terms += [(j, key, c) for j, aj in enumerate(a) for key, c in aj.terms.items()]
        out = np.zeros((self.dim, ncols), dtype=complex)
        if not terms:
            return out
        slot, keys, coeff = map(list, zip(*terms))
        keys = np.array(keys)
        gamma = keys[:, :n] - np.eye(n + 1, n, dtype=np.int64)[slot]
        beta = keys[:, n:]
        alphas = self._exps[:ncols]
        # e: (term, column, variable); w: alpha_j (1 for m) times the coefficient,
        # then times e_j!/(e_j - beta_j)! / N^beta_j one variable at a time
        e = alphas + gamma[:, None, :]
        w = np.array(coeff)[:, None] * np.hstack([alphas, np.ones((ncols, 1))])[:, slot].T
        perm = np.ones_like(e)
        for t in range(beta.max()):
            perm *= np.where(t < beta[:, None, :], e - t, 1)
        ratio = perm / self.N ** beta[:, None, :]
        for j in range(n):
            w = w * ratio[:, :, j]
        term, col = np.nonzero(w)
        image = e[term, col] - beta[term]
        degree = image.sum(axis=1).max(initial=0)
        if degree > self.D:
            raise DegreeOverflowError(f"output degree {degree} exceeds truncation D = {self.D}")
        rows = self._rows[tuple(image.T)]
        np.add.at(out, (rows, col), w[term, col])
        out *= self._norms[:ncols]
        # per part: numpy's complex division rounds twice (by a reciprocal)
        out.real /= self._norms[:, None]
        out.imag /= self._norms[:, None]
        return out


def project(f: ChartFunction, N: int) -> ChartFunction:
    """Orthogonal projection onto holomorphic prefactors at level N.

    Acts termwise by zbar^beta z^alpha -> N^{-|beta|} d^beta z^alpha, the
    coherent-state reproducing identity for the Gaussian weight; the term
    vanishes when some beta_j exceeds alpha_j.
    """
    out: dict = {}
    n = f.nvars
    for key, c in f.terms.items():
        alpha = list(key[:n])
        for j, b in enumerate(key[n:]):
            if b:
                if alpha[j] < b:
                    break
                c *= math.perm(alpha[j], b) / N**b
                alpha[j] -= b
        else:
            image = tuple(alpha) + (0,) * n
            out[image] = out.get(image, 0.0) + c
    return ChartFunction(out)


class _FirstOrder:
    """f -> m f + sum_j (a_j df/dz_j + b_j df/dzbar_j), its coefficients read off H.

    Each term c z^alpha zbar^beta of H gives the term weight(|alpha|, |beta|) c
    z^alpha zbar^beta of m; a_j = a_scale dH/dzbar_j and b_j = b_scale dH/dz_j.
    The vector-field part X = sum_j (a_j d/dz_j + b_j d/dzbar_j) is also kept
    as a flat list of entries (k, shift, coeff), one per term of a_j and b_j:
    k is the key slot of the variable differentiated, shift the term's key
    with one taken off slot k.
    """

    __slots__ = ("m", "a", "field")

    def __init__(self, h: ChartFunction, weight, a_scale: complex, b_scale: complex):
        n = h.nvars
        self.m = ChartFunction(
            {key: weight(sum(key[:n]), sum(key[n:])) * c for key, c in h.terms.items()}
        )
        self.a = [a_scale * h.dzbar(j) for j in range(n)]
        b = [b_scale * h.dz(j) for j in range(n)]
        self.field = []
        for k, poly in enumerate(self.a + b):
            for key, c in poly.terms.items():
                shift = list(key)
                shift[k] -= 1
                self.field.append((k, tuple(shift), c))

    def apply_field(self, p: ChartFunction) -> dict:
        """X p as {key: coeff}, in one pass over (term, entry) pairs."""
        out: dict = {}
        for ab, c in p.terms.items():
            for k, shift, coeff in self.field:
                q = ab[k]
                if q:
                    key = tuple(map(add, ab, shift))
                    out[key] = out.get(key, 0.0) + c * (q * coeff)
        return out


def _bracket(d1: _FirstOrder, d2: _FirstOrder) -> tuple[ChartFunction, list]:
    """m and a_j of [D2, D1] on holomorphic prefactors: X2 m1 - X1 m2 and
    X2 a1_j - X1 a2_j; the second-order and m-times-a terms cancel."""

    def part(p1: ChartFunction, p2: ChartFunction) -> ChartFunction:
        x2, x1 = d2.apply_field(p1), d1.apply_field(p2)
        return ChartFunction(
            {k: x2.get(k, 0.0) - x1.get(k, 0.0) for k in x2.keys() | x1.keys()}
        )

    return part(d1.m, d2.m), [part(x, y) for x, y in zip(d1.a, d2.a)]


def _lie_operator(h: ChartFunction, N: int) -> _FirstOrder:
    """Derivation along xi_H = 2i sum_j (H_{z_j} d_{zbar_j} - H_{zbar_j} d_{z_j})
    on g exp(-N|z|^2/2), as a map of prefactors g.  The Gaussian contributes
    m = iN sum_j (zbar_j H_{zbar_j} - z_j H_{z_j}), iN (|beta| - |alpha|) c termwise.
    """
    return _FirstOrder(h, lambda a, b: 1j * N * (b - a), -2j, 2j)


def _bargmann_operator(h: ChartFunction, N: int) -> _FirstOrder:
    """Prequantum generator of the flat model on prefactors.

    For the Gaussian weight exp(-N|z|^2), the symplectic form with
    i_xi omega = -dH that the weight prequantizes is 2 dx dy per variable,
    giving the flow coefficient a_j = i dH/dzbar_j and

        G f = sum_j [a_j (d/dz_j - N zbar_j) + conj-part d/dzbar_j] f + i N H f,

    so b_j = -i H_{z_j} and m = iN H - N sum_j a_j zbar_j, which is
    iN (1 - |beta|) c termwise.  The rotation H = |z|^2 acts diagonally:
    G z^k = i k z^k.
    """
    return _FirstOrder(h, lambda a, b: 1j * N * (1 - b), 1j, -1j)


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


def _curvature_matrix(d1, d2, trunc: FockTruncation) -> FockOperator:
    """Columns of pi [D2, D1] pi - [pi D2 pi, pi D1 pi] for two `_FirstOrder` maps."""
    if trunc.D < 4:
        raise DegreeOverflowError("curvature columns need D >= 4")
    m, k = trunc.dim_up_to(trunc.D - 2), trunc.dim_up_to(trunc.D - 4)
    b1 = trunc.operator_matrix(d1.m, d1.a, m)
    b2 = trunc.operator_matrix(d2.m, d2.a, m)
    inner = trunc.operator_matrix(*_bracket(d1, d2), k)
    mat = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    mat[:, :k] = inner - (b2 @ b1[:m, :k] - b1 @ b2[:m, :k])
    return FockOperator(mat, trunc, trunc.D - 4)


def curvature_operator(
    h1: ChartFunction, h2: ChartFunction, trunc: FockTruncation
) -> FockOperator:
    """Difference between the compressed commutator and the commutator of compressions.

    For Hamiltonian derivations L_i along xi_{H_i} and the holomorphic
    projection pi, builds

        pi [L_2, L_1] pi - [pi L_2 pi, pi L_1 pi]

    from the closed-form operator matrices of L_1, L_2 and their bracket.
    This measures the curvature of the family of holomorphic subspaces in the
    directions that H_1 and H_2 generate; columns are exact for inputs of
    degree <= D - 4.
    """
    N = trunc.N
    return _curvature_matrix(_lie_operator(h1, N), _lie_operator(h2, N), trunc)


def flat_curvature_operator(
    h1: ChartFunction, h2: ChartFunction, trunc: FockTruncation
) -> FockOperator:
    """Curvature columns with the flat prequantum generators in place of the
    bare Hamiltonian derivations (the multiplication term i N H included)."""
    N = trunc.N
    return _curvature_matrix(_bargmann_operator(h1, N), _bargmann_operator(h2, N), trunc)


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
