"""The Fock first-order operators applied to a prefactor in the symbolic algebra.

The one-pass application f -> m f + sum_j (a_j df/dz_j + b_j df/dzbar_j),
image by image, as an oracle for the closed-form operator matrices and
bracket of `quantcurv.fock`; and chart functions evaluated at one point.
"""

from operator import add

import numpy as np

from quantcurv import fock
from quantcurv.sphere import ChartFunction


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


def apply(op, f: ChartFunction) -> ChartFunction:
    """Apply a `fock._FirstOrder` to f in one pass over (term, entry) pairs.

    The entries are those of the vector-field part plus one per term of m,
    slot -1 (a constant 1 appended to each key) with the term's key as shift.
    """
    entries = [(-1, key, c) for key, c in op.m.terms.items()]
    entries += op.field
    out: dict = {}
    for key, c in f.terms.items():
        ab = key + (1,)
        for k, shift, coeff in entries:
            p = ab[k]
            if p:
                image = tuple(map(add, ab, shift))
                out[image] = out.get(image, 0.0) + c * (p * coeff)
    return ChartFunction(out)


def bargmann_generator(h: ChartFunction, f: ChartFunction, N: int) -> ChartFunction:
    """Prequantum generator of the flat model applied to a prefactor f.

    G f = sum_j [a_j (d/dz_j - N zbar_j) + conj-part d/dzbar_j] f + i N H f
    with a_j = i dH/dzbar_j; the rotation H = |z|^2 acts as G z^k = i k z^k.
    """
    return apply(fock._bargmann_operator(h, N), f)
