"""The Fock operators applied to a prefactor, written out literally.

The reproducing-kernel projection onto holomorphic prefactors, term by term;
the derivation along xi_H and the flat prequantum generator, each from its
defining formula in `ChartFunction` ops, image by image, as oracles for the
Toeplitz symbols and Poisson brackets of `quantcurv.fock`; a quadratic
Hamiltonian rewritten in (z, zbar) as a sum of products of chart functions,
as the oracle of `fock.hamiltonian_bipoly`; chart functions evaluated at one
point; and the square block of a batch's curvature columns.
"""

import math

import numpy as np

from quantcurv.toeplitz import ChartFunction


def value(f: ChartFunction, z) -> complex:
    """f at a point z in C^n (zbar taken as the conjugate)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    zb = z.conj()
    n = len(z)
    tot = 0.0 + 0.0j
    for key, c in f.terms.items():
        term = c
        for j in range(n):
            term *= z[j] ** key[j] * zb[j] ** key[n + j]
        tot += term
    return tot / (1.0 + float(np.vdot(z, z).real)) ** f.denom


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


def square(cols: np.ndarray) -> np.ndarray:
    """Square block of curvature columns, on the subspace that they cover."""
    return cols[: cols.shape[1]]


def hamiltonian_products(h) -> ChartFunction:
    """sum_ab S_ab v_a v_b, v = (x, y), x_j = (z_j + zbar_j)/2 and
    y_j = (z_j - zbar_j)/(2i), with ChartFunction products and sums."""
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


def _unit(n: int, j: int, side: int) -> ChartFunction:
    """z_j (side 0) or zbar_j (side 1) in n variables."""
    e = [1 if k == j else 0 for k in range(n)]
    return ChartFunction.monomial(*((e, [0] * n) if side == 0 else ([0] * n, e)))


def lie_derivative(h: ChartFunction, g: ChartFunction, N: int) -> ChartFunction:
    """Derivation along xi_H = 2i sum_j (H_{z_j} d_{zbar_j} - H_{zbar_j} d_{z_j})
    of the state g exp(-N|z|^2/2), as a prefactor."""
    n = h.nvars
    out = ChartFunction()
    for j in range(n):
        hz = h.dz(j)
        hzb = h.dzbar(j)
        out = out + 2j * (hz * g.dzbar(j)) - 2j * (hzb * g.dz(j))
        zj, zbj = _unit(n, j, 0), _unit(n, j, 1)
        out = out + 1j * N * ((zbj * hzb) * g) - 1j * N * ((zj * hz) * g)
    return out


def bargmann_generator(h: ChartFunction, f: ChartFunction, N: int) -> ChartFunction:
    """Prequantum generator of the flat model applied to a prefactor f.

    G f = sum_j [a_j (d/dz_j - N zbar_j) + conj-part d/dzbar_j] f + i N H f
    with a_j = i dH/dzbar_j; the rotation H = |z|^2 acts as G z^k = i k z^k.
    """
    n = h.nvars
    out = (1j * N) * (h * f)
    for j in range(n):
        a = 1j * h.dzbar(j)
        abar = -1j * h.dz(j)
        out = out + a * (f.dz(j) - N * (_unit(n, j, 1) * f)) + abar * f.dzbar(j)
    return out
