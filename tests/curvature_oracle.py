"""The compressed curvature, one image at a time, as an oracle for the
closed-form curvature builds of `quantcurv.fock` and `quantcurv.sphere`."""

import numpy as np


def compressed_curvature(basis: list, d1, d2, to_matrix, n: int) -> np.ndarray:
    """Columns of Pi [D2, D1] Pi - [Pi D2 Pi, Pi D1 Pi] on basis[:n].

    `d1` and `d2` apply the two operators to one vector; `to_matrix` maps a
    list of images (entry k the image of basis[k]) to the coefficient columns
    of their projections, row i belonging to basis[i] for i < len(basis).
    Each operator is applied once to every basis vector and once more to the
    other's first n images.  The compressions are multiplied on the first
    len(basis) coefficient rows, so the projected images of basis[:n] must
    lie in the span of `basis`.
    """
    m = len(basis)
    g1 = [d1(x) for x in basis]
    g2 = [d2(x) for x in basis]
    b1 = to_matrix(g1)
    b2 = to_matrix(g2)
    inner = to_matrix([d2(x) - d1(y) for x, y in zip(g1[:n], g2[:n])])
    return inner - (b2 @ b1[:m, :n] - b1 @ b2[:m, :n])
