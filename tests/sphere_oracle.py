"""The prequantum generator applied to a chart function in the symbolic algebra.

The literal formula, term by term, as an oracle for the closed forms of
`quantcurv.sphere` (which act through the flow field and phase rate alone)
and for the grid generator of `quantcurv.transport`; and chart functions
evaluated on points with every power table multiplied in, ones included.
"""

import numpy as np

from quantcurv.sphere import ChartFunction, HamiltonianField

_ZBAR_OVER_1PW = ChartFunction({(0, 1): 1.0}, denom=1)


def generator_apply(ham: HamiltonianField, f: ChartFunction, N: int) -> ChartFunction:
    """G f = a f_z + conj(a) f_zbar - N (a zbar/(1+w)) f + i N h f, symbolically."""
    a = ham.a
    out = a * f.dz(0) + a.conj() * f.dzbar(0)
    out = out - float(N) * ((a * _ZBAR_OVER_1PW) * f)
    out = out + (1j * N) * (ham.h * f)
    return out


def eval_batch_reference(cfs: list[ChartFunction], z: np.ndarray) -> list[np.ndarray]:
    """Each c z^a zbar^b / (1+|z|^2)^m from tables that start at the ones."""
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
