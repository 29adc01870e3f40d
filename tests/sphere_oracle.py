"""The prequantum generator applied to a chart function in the symbolic algebra.

The literal formula, term by term, as an oracle for the closed forms of
`quantcurv.sphere` (which act through the flow field and phase rate alone)
and for the grid generator of `quantcurv.transport`.
"""

from quantcurv.sphere import ChartFunction, HamiltonianField

_ZBAR_OVER_1PW = ChartFunction({(0, 1): 1.0}, denom=1)


def generator_apply(ham: HamiltonianField, f: ChartFunction, N: int) -> ChartFunction:
    """G f = a f_z + conj(a) f_zbar - N (a zbar/(1+w)) f + i N h f, symbolically."""
    a = ham.a
    out = a * f.dz(0) + a.conj() * f.dzbar(0)
    out = out - float(N) * ((a * _ZBAR_OVER_1PW) * f)
    out = out + (1j * N) * (ham.h * f)
    return out
