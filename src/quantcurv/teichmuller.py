"""Pointwise pairing of metric variations on an equal-area slice.

A hyperbolic surface carries a family of Riemannian metrics

    f [Phi dz^2 + rho E dz dzbar + conj(Phi) dzbar^2]

indexed by holomorphic quadratic differentials, all sharing the area form
sigma dx dy of the base hyperbolic metric.  Everything here is restricted to
a single tangent plane: a point of the slice is the tuple of scalars
(sigma, rho0, E0, f0, Phi0), a variation is the derivative of the metric
matrix along a path in the slice, and the pairing of two variations is the
natural symplectic form on the deformation directions of the induced complex
structure.  The closed form depends only on the derivative v = d(f Phi)/dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TEICHMULLER_TUPLES_MAX",
    "SlicePoint",
    "SliceVariation",
    "slice_variation",
    "random_slice_point",
    "metric_matrix",
    "h_matrix",
    "pairing_trace",
    "pairing_closed_form",
    "pairing_scale",
    "wp_integrand",
]

# Bound of a teichmuller-symbol config's n_tuples: ~0.22 ms a tuple, so a run
# at the bound takes ~11 s (2 vCPU).
TEICHMULLER_TUPLES_MAX = 50_000

_J0 = np.array([[0.0, -1.0], [1.0, 0.0]])
_Z = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)


@dataclass(frozen=True)
class SlicePoint:
    """Slice data at one point: base conformal factor and metric coefficients.

    Admissibility f0^2 (rho0^2 E0^2 - 4|Phi0|^2) = sigma^2 is the equal-area
    condition det g0 = sigma^2 and is enforced on construction.
    """

    sigma: float
    rho0: float
    E0: float
    f0: float
    Phi0: complex

    def __post_init__(self):
        for name in ("sigma", "rho0", "E0", "f0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        lhs = self.f0**2 * ((self.rho0 * self.E0) ** 2 - 4 * abs(self.Phi0) ** 2)
        if abs(lhs - self.sigma**2) > 1e-10 * self.sigma**2:
            raise ValueError(
                "inadmissible slice point: f0^2 (rho0^2 E0^2 - 4 |Phi0|^2) != sigma^2"
            )


@dataclass(frozen=True)
class SliceVariation:
    """Metric derivative along an equal-area path, determined by v = d(f Phi)/dt."""

    v: complex
    u: np.ndarray = field(repr=False)


def slice_variation(p: SlicePoint, v: complex) -> SliceVariation:
    """Tangent metric variation at p with d(f Phi)/dt = v.

    The remaining derivative d(f rho E)/dt is forced by differentiating the
    equal-area constraint: w = 4 Re(conj(f0 Phi0) v) / (f0 rho0 E0).
    """
    v = complex(v)
    fp = p.f0 * p.Phi0
    w = 4.0 * (fp.conjugate() * v).real / (p.f0 * p.rho0 * p.E0)
    u = np.array(
        [[2 * v.real + w, -2 * v.imag], [-2 * v.imag, -2 * v.real + w]]
    )
    return SliceVariation(v=v, u=u)


def random_slice_point(rng: np.random.Generator) -> SlicePoint:
    """Sample an admissible point: free sigma, f0, Phi0; rho0 E0 solved for.

    The pairing only sees the product rho0 E0, so its split between the two
    factors is drawn arbitrarily.
    """
    sigma = rng.uniform(0.5, 3.0)
    f0 = rng.uniform(0.5, 3.0)
    phi = rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform())
    prod = math.sqrt(sigma**2 / f0**2 + 4 * abs(phi) ** 2)
    rho0 = rng.uniform(0.5, 2.0)
    return SlicePoint(sigma=sigma, rho0=rho0, E0=prod / rho0, f0=f0, Phi0=complex(phi))


def metric_matrix(p: SlicePoint) -> np.ndarray:
    """Real symmetric matrix of the slice metric at p, det = sigma^2."""
    s = 2 * p.Phi0.real
    d = -2 * p.Phi0.imag          # i (Phi - conj(Phi)) is real
    re = p.rho0 * p.E0
    g = p.f0 * np.array([[s + re, d], [d, -s + re]])
    if g[0, 0] <= 0 or np.linalg.det(g) <= 0:
        raise ValueError("metric not positive definite")
    return g


def h_matrix(p: SlicePoint) -> np.ndarray:
    """Symplectic matrix h with g0 = sigma J0^{-1} h J0 h^{-1}.

    h conjugates the standard complex structure to the one the slice metric
    induces; at Phi0 = 0 with f0 rho0 E0 = sigma it reduces to -Identity.
    """
    s = 2 * p.Phi0.real
    d = -2 * p.Phi0.imag
    re = p.rho0 * p.E0
    pref = 1.0 / math.sqrt(2 * p.sigma * (p.sigma + p.f0 * re))
    return pref * np.array(
        [
            [-p.sigma + p.f0 * (s - re), p.f0 * d],
            [p.f0 * d, -p.sigma - p.f0 * (s + re)],
        ]
    )


def pairing_trace(p: SlicePoint, u1, u2) -> float:
    """Pairing of two variations via the trace form on deformation directions.

    <u1, u2> = -(1/sigma^2) tr(h^{-1} J0 u1 h Z h^{-1} J0 u2 h Z^{-1}) where
    Z rotates by 45 degrees (the invariant complex structure on the symmetric
    part of sl(2, R)).  Accepts SliceVariation objects or raw 2x2 symmetric
    variation matrices.
    """
    m1 = u1.u if isinstance(u1, SliceVariation) else np.asarray(u1, dtype=float)
    m2 = u2.u if isinstance(u2, SliceVariation) else np.asarray(u2, dtype=float)
    h = h_matrix(p)
    hinv = np.linalg.inv(h)
    x1 = hinv @ _J0 @ m1 @ h
    x2 = hinv @ _J0 @ m2 @ h
    return float(-np.trace(x1 @ _Z @ x2 @ _Z.T) / p.sigma**2)


def pairing_closed_form(p: SlicePoint, v1: complex, v2: complex) -> float:
    """Closed form of the pairing: -(8 / (sigma rho0 f0 E0)) Im(v1 conj(v2))."""
    return -8.0 / (p.sigma * p.rho0 * p.f0 * p.E0) * (v1 * np.conj(v2)).imag


def pairing_scale(p: SlicePoint, v1: complex, v2: complex) -> float:
    """(8 / (sigma rho0 f0 E0)) |v1| |v2|, the size of the pairing's terms.

    The closed form scales it by -Im(v1 conj(v2)) / (|v1| |v2|), which cancels
    when v1 and v2 are nearly parallel while the trace form's rounding stays
    relative to this scale, so an error of the pairing is measured against
    it.  At a flat point (Phi0 = 0, f0 rho0 E0 = sigma) it is the scale
    (8 / sigma^2) |v1| |v2| of `wp_integrand`.
    """
    return 8.0 / (p.sigma * p.rho0 * p.f0 * p.E0) * abs(v1) * abs(v2)


def wp_integrand(sigma: float, phi1: complex, phi2: complex) -> float:
    """Pairing density at the hyperbolic point itself: -(8/sigma^2) Im(phi1 conj(phi2)).

    Integrating this against the hyperbolic area form gives (up to a constant)
    the Weil-Petersson symplectic form on the moduli of complex structures.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return -8.0 / sigma**2 * (phi1 * np.conj(phi2)).imag
