"""The Fock first-order operators applied to a prefactor in the symbolic algebra.

The one-pass application f -> m f + sum_j (a_j df/dz_j + b_j df/dzbar_j),
image by image, as an oracle for the closed-form operator matrices and
bracket of `quantcurv.fock`.
"""

from operator import add

from quantcurv import fock
from quantcurv.fock import BiPolynomial


def apply(op, f: BiPolynomial) -> BiPolynomial:
    """Apply a `fock._FirstOrder` to f in one pass over (term, entry) pairs.

    The entries are those of the vector-field part plus one per term of m,
    slot 2n (a constant 1) with the term's exponents as shift.
    """
    n = f.n
    entries = [(2 * n, alpha + beta, c) for (alpha, beta), c in op.m.terms.items()]
    entries += op.field
    out: dict = {}
    for (alpha, beta), c in f.terms.items():
        ab = alpha + beta + (1,)
        for k, shift, coeff in entries:
            p = ab[k]
            if p:
                key = tuple(map(add, ab, shift))
                out[key] = out.get(key, 0.0) + c * (p * coeff)
    return BiPolynomial(n, {(key[:n], key[n:]): c for key, c in out.items()})


def bargmann_generator(h: BiPolynomial, f: BiPolynomial, N: int) -> BiPolynomial:
    """Prequantum generator of the flat model applied to a prefactor f.

    G f = sum_j [a_j (d/dz_j - N zbar_j) + conj-part d/dzbar_j] f + i N H f
    with a_j = i dH/dzbar_j; the rotation H = |z|^2 acts as G z^k = i k z^k.
    """
    return apply(fock._bargmann_operator(h, N), f)
