"""Linear symplectic algebra on R^{2n} = C^n.

Coordinates are ordered (x_1..x_n, y_1..y_n), z_j = x_j + i y_j.  The
symplectic form is om(u, v) = u^T sigma^T v with the block matrix
sigma = [[0, -I], [I, 0]], so om(e_{x_j}, e_{y_j}) = 1.

A real quadratic Hamiltonian is stored through its generator X in sp(n, R):

    H(v) = (1/2) om(v, X v) = (1/2) v^T sigma^T X v.

The Hamiltonian vector field of H (fixed by contracting it into om as
xi . om = dH, equivalently xi = (dH/dy, -dH/dx)) is then v -> -X v, and the
bracket {H1, H2} = om(xi_{H1}, xi_{H2}) has generator [X2, X1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "standard_symplectic",
    "standard_complex_structure",
    "assert_sp_element",
    "QuadraticHamiltonian",
    "hamiltonian_from_form",
    "p_plus_basis",
    "p_minus_basis",
    "omega_pairing",
    "tangent_from_generator",
    "assert_tangent_at",
    "chi_symbol",
]


def standard_symplectic(n: int) -> np.ndarray:
    """Block matrix sigma = [[0, -I_n], [I_n, 0]]."""
    eye = np.eye(n)
    sigma = np.zeros((2 * n, 2 * n))
    sigma[:n, n:] = -eye
    sigma[n:, :n] = eye
    return sigma


def standard_complex_structure(n: int) -> np.ndarray:
    """Multiplication by i on R^{2n}; numerically equal to sigma."""
    return standard_symplectic(n)


def _dim_n(x: np.ndarray) -> int:
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] % 2:
        raise ValueError(f"expected a 2n x 2n matrix, got shape {x.shape}")
    return x.shape[0] // 2


def assert_sp_element(x: np.ndarray, tol: float = 1e-12) -> None:
    """Check the Lie-algebra condition X^T sigma + sigma X = 0."""
    n = _dim_n(x)
    sigma = standard_symplectic(n)
    defect = np.max(np.abs(x.T @ sigma + sigma @ x))
    scale = max(1.0, float(np.max(np.abs(x))))
    if defect > tol * scale:
        raise ValueError(f"matrix is not in sp({n}, R): defect {defect:.3e}")


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Real quadratic Hamiltonian represented by its sp(n, R) generator."""

    generator: np.ndarray

    def __post_init__(self):
        gen = np.asarray(self.generator, dtype=float)
        assert_sp_element(gen)
        object.__setattr__(self, "generator", gen)

    @property
    def n(self) -> int:
        return self.generator.shape[0] // 2

    def value(self, v: np.ndarray) -> float:
        """H(v) = (1/2) v^T sigma^T X v."""
        sigma = standard_symplectic(self.n)
        v = np.asarray(v, dtype=float)
        return 0.5 * float(v @ (sigma.T @ self.generator @ v))

    def form_matrix(self) -> np.ndarray:
        """Symmetric S with H(v) = v^T S v."""
        sigma = standard_symplectic(self.n)
        s = 0.5 * sigma.T @ self.generator
        return 0.5 * (s + s.T)


def hamiltonian_from_form(s: np.ndarray) -> QuadraticHamiltonian:
    """Hamiltonian with H(v) = v^T S v for symmetric S; generator X = 2 sigma S."""
    s = np.asarray(s, dtype=float)
    n = _dim_n(s)
    if np.max(np.abs(s - s.T)) > 1e-12 * max(1.0, np.max(np.abs(s))):
        raise ValueError("quadratic form matrix must be symmetric")
    return QuadraticHamiltonian(2.0 * standard_symplectic(n) @ s)


def _pair_indices(n: int) -> list[tuple[int, int]]:
    return [(m, l) for m in range(n) for l in range(m + 1)]


def _sym_entry(n: int, i: int, j: int, val: float) -> np.ndarray:
    s = np.zeros((2 * n, 2 * n))
    s[i, j] += val
    s[j, i] += val
    return s


def p_plus_basis(n: int) -> list[QuadraticHamiltonian]:
    """Hamiltonians z_m z_l + zbar_m zbar_l = 2(x_m x_l - y_m y_l), l <= m.

    Their generators are symmetric, i.e. lie in the p part of the Cartan
    split; together with `p_minus_basis` they span it (n(n+1) directions).
    """
    out = []
    for m, l in _pair_indices(n):
        s = _sym_entry(n, m, l, 1.0) + _sym_entry(n, n + m, n + l, -1.0)
        out.append(hamiltonian_from_form(s))
    return out


def p_minus_basis(n: int) -> list[QuadraticHamiltonian]:
    """Hamiltonians i(z_m z_l - zbar_m zbar_l) = -2(x_m y_l + y_m x_l), l <= m."""
    out = []
    for m, l in _pair_indices(n):
        s = _sym_entry(n, m, n + l, -1.0) + _sym_entry(n, l, n + m, -1.0)
        out.append(hamiltonian_from_form(s))
    return out


def omega_pairing(x1: np.ndarray, x2: np.ndarray, j: np.ndarray | None = None) -> float:
    """Pairing tr(X1 J X2) on symmetric sp elements.

    This is the natural invariant antisymmetric pairing on the deformation
    directions at J (antisymmetry follows from J X = -X J for both arguments).
    `j` defaults to the standard complex structure.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if j is None:
        j = standard_complex_structure(_dim_n(x1))
    return float(np.trace(x1 @ j @ x2))


def tangent_from_generator(x: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Tangent [X, J] at J of the conjugation orbit t -> exp(tX) J exp(-tX)."""
    x = np.asarray(x, dtype=float)
    j = np.asarray(j, dtype=float)
    return x @ j - j @ x


def assert_tangent_at(a: np.ndarray, j: np.ndarray, tol: float = 1e-10) -> None:
    """A tangent direction at J anticommutes with J and stays in sp(n, R)."""
    a = np.asarray(a, dtype=float)
    j = np.asarray(j, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a @ j + j @ a)) > tol * scale:
        raise ValueError("variation does not anticommute with J")
    assert_sp_element(a, tol=tol)


def chi_symbol(a: np.ndarray, j: np.ndarray, b: np.ndarray) -> float:
    """Pointwise curvature symbol tr(A J B) for tangent directions A, B at J."""
    for m in (a, b):
        assert_tangent_at(m, j)
    return float(np.trace(a @ j @ b))
