"""The chart algebra and the Toeplitz engine that every quantization model shares.

Chart functions: a `ChartFunction` is p(z, zbar)/(1+|z|^2)^m on a chart of
C^n, |z|^2 = sum_j z_j zbar_j, with one denominator power m >= 0 and p stored
as {key: c}, the term c z^alpha zbar^beta under the flat exponent key

    key = (alpha_1, ..., alpha_n, beta_1, ..., beta_n),

so n is the key length over two.  The sphere chart (`quantcurv.sphere`) has
n = 1 and keys (a, b).  The flat Fock model (`quantcurv.fock`) uses the same
class with m = 0, where it is a polynomial in z and zbar and d/dz_j,
d/dzbar_j keep m = 0.

The engine: every operator matrix of a model is the Toeplitz matrix
<e_r, f e_col> of a chart function f in an orthonormal monomial basis
e_alpha = z^alpha/||z^alpha||, several symbols in one pass of `toeplitz`.  A
term c z^gamma zbar^beta/(1+|z|^2)^m takes z^col to a multiple of one
monomial z^r, r = col + gamma - beta, so an entry is c times the exponential
of a pairing's log minus the logs of two norms.  Those logs are differences
of terms of size N log N, so each is carried as a (hi, lo) pair of doubles
(`dd_sum`, `dd_exp`, `dd_times`, `dd_log`, and the log k! table
`log_factorials`), and every entry is exact to rounding whatever N.

The model protocol.  A basis that `toeplitz` and `curvatures` accept has

- `N`, the level, and `dim`, the number of basis monomials;
- `exps`, their exponents alpha as a (dim, n) integer array, and
  `log_norms`, the logs of ||z^alpha|| as a (hi, lo) pair of arrays;
- `log_pairing(e, beta, m)`, the log of the pairing <z^(e - beta), z^e
  zbar^beta/(1+|z|^2)^m> as a (hi, lo) pair of arrays, one entry per row
  of the (k, n) arrays e and beta and of the k powers m, raising
  ValueError where a pairing diverges;
- `row(r)`, the row of each image monomial z^r of the (k, n) array r, -1
  (or an error of the model's own) where z^r leaves the space;
- `columns(order)`, the number of leading columns whose images under an
  operator of that order stay in the space.

`curvatures` also takes from the model a `symbol(f)`, which forms the
level-free algebra of f once and returns N -> the symbol of the compressed
operator of f, and a `bracket(f1, f2)`, with Pi [D2, D1] Pi the Toeplitz
operator of symbol(bracket(f1, f2)).  The curvature along a pair is then

    Y = T_bracket - [B2, B1],    B_i = T_{symbol(f_i)(N)},

the compressed commutator less the commutator of the compressions.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from operator import add

import numpy as np

__all__ = [
    "ChartFunction",
    "dd_sum",
    "dd_exp",
    "dd_times",
    "dd_log",
    "log_factorials",
    "toeplitz",
    "curvatures",
]


class ChartFunction:
    """Function sum c z^alpha zbar^beta / (1+|z|^2)^m on a chart of C^n.

    Terms are {key: c} with flat keys (alpha, beta), as the module docstring
    says.  The class is closed under +, *, d/dz_j, d/dzbar_j and conjugation,
    which is what makes projector and curvature matrix elements exactly
    integrable: against monomial sections and the fiber weight, every inner
    product is a closed-form Beta integral (`sphere.SectionBasis`).
    """

    __slots__ = ("terms", "denom")

    def __init__(self, terms: dict | None = None, denom: int = 0):
        if denom < 0:
            raise ValueError("denominator power must be >= 0")
        self.denom = denom
        self.terms = (
            {tuple(key): complex(c) for key, c in terms.items() if c != 0} if terms else {}
        )

    @classmethod
    def monomial(cls, alpha, beta=None, coeff: complex = 1.0, denom: int = 0):
        """coeff z^alpha zbar^beta / (1+|z|^2)^denom; beta defaults to 0, and an
        integer exponent is a multi-index in one variable."""
        alpha = tuple(alpha) if np.ndim(alpha) else (int(alpha),)
        if beta is None:
            beta = (0,) * len(alpha)
        beta = tuple(beta) if np.ndim(beta) else (int(beta),)
        return cls({alpha + beta: coeff}, denom)

    @property
    def nvars(self) -> int:
        """n, read off the key length (0 when there are no terms)."""
        return len(next(iter(self.terms), ())) // 2

    def _with_denom(self, m: int) -> dict:
        """Terms re-expressed over (1+|z|^2)^m (m >= self.denom): times the
        multinomial expansion of (1+|z|^2)^k, k = m - self.denom."""
        k = m - self.denom
        if k == 0:
            return dict(self.terms)
        out: dict = {}
        for g in product(range(k + 1), repeat=self.nvars):
            if sum(g) > k:
                continue
            coef = math.factorial(k) // math.prod(map(math.factorial, (k - sum(g), *g)))
            for key, c in self.terms.items():
                key = tuple(map(add, key, g + g))
                out[key] = out.get(key, 0.0) + coef * c
        return out

    def __add__(self, other: "ChartFunction") -> "ChartFunction":
        m = max(self.denom, other.denom)
        out = self._with_denom(m)
        for key, c in other._with_denom(m).items():
            s = out.get(key, 0.0) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return ChartFunction(out, m)

    def __sub__(self, other: "ChartFunction") -> "ChartFunction":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "ChartFunction":
        return ChartFunction(
            {key: scalar * c for key, c in self.terms.items()}, self.denom
        )

    def __mul__(self, other: "ChartFunction") -> "ChartFunction":
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(map(add, k1, k2))
                s = out.get(key, 0.0) + c1 * c2
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return ChartFunction(out, self.denom + other.denom)

    def dz(self, j: int) -> "ChartFunction":
        """d/dz_j: over m = 0 the plain derivative, again over m = 0; over
        m > 0 the quotient rule

            d/dz_j [p/(1+w)^m] = [p_{z_j} (1+w) - m zbar_j p] / (1+w)^(m+1),

        w = |z|^2, with (1+w) applied to p_{z_j} as 1 + sum_k z_k zbar_k."""
        return self._derivative(j, 0)

    def dzbar(self, j: int) -> "ChartFunction":
        """d/dzbar_j, the conjugate rule of `dz`."""
        return self._derivative(j, 1)

    def _derivative(self, j: int, side: int) -> "ChartFunction":
        """Derivative in key slot j + side n; its conjugate variable is slot
        j + (1 - side) n."""
        n, m = self.nvars, self.denom
        d, e = j + side * n, j + (1 - side) * n
        out: dict = {}
        for key, c in self.terms.items():
            p = key[d]
            if p:
                low = key[:d] + (p - 1,) + key[d + 1 :]
                out[low] = out.get(low, 0.0) + p * c
                if m:  # the w part of (1 + w): one z_k zbar_k shift each
                    for k in range(n):
                        up = list(low)
                        up[k] += 1
                        up[k + n] += 1
                        up = tuple(up)
                        out[up] = out.get(up, 0.0) + p * c
            if m:
                up = key[:e] + (key[e] + 1,) + key[e + 1 :]
                out[up] = out.get(up, 0.0) - m * c
        return ChartFunction(out, m + 1 if m else 0)

    def conj(self) -> "ChartFunction":
        n = self.nvars
        return ChartFunction(
            {key[n:] + key[:n]: c.conjugate() for key, c in self.terms.items()}, self.denom
        )

    def imag(self) -> "ChartFunction":
        return -0.5j * (self - self.conj())

    def eval(self, z: np.ndarray) -> np.ndarray:
        """Values at the points z of the one-variable chart (n = 1)."""
        from .sphere import eval_batch

        return eval_batch([self], z)[0]

    def bounded_at_infinity(self) -> bool:
        return all(sum(key) <= 2 * self.denom for key in self.terms)

    def __repr__(self):
        return f"ChartFunction(nterms={len(self.terms)}, denom={self.denom})"


def dd_sum(*pairs):
    """Sum of (hi, lo) pairs as one pair: error-free on the hi parts.

    Logs are carried as such pairs, whose sum holds ~32 digits, so a pairing
    stays exact to rounding although its log is a difference of terms of
    size N log N.
    """
    hi, lo = pairs[0]
    for h, l in pairs[1:]:
        # Knuth's TwoSum: s + e == hi + h exactly
        s = hi + h
        hv = s - hi
        e = (hi - (s - hv)) + (h - hv)
        hi, lo = s, lo + (e + l)
    return hi, lo


def dd_exp(pair):
    """exp(hi + lo) for |lo| << 1, to a few ulp."""
    hi, lo = pair
    return np.exp(hi) * (1.0 + lo)


def dd_times(pair, k):
    """k (hi + lo) as a pair, for integers 0 <= k < 2**26: hi splits into two
    halves of at most 26 bits (Veltkamp), whose products with k are exact."""
    hi, lo = pair
    t = 134217729.0 * hi  # 2**27 + 1
    top = t - (t - hi)
    return dd_sum((k * top, k * lo), (k * (hi - top), 0.0))


@lru_cache(maxsize=16)
def dd_log(k: int):
    """log k as a (hi, lo) pair, from 40-digit `decimal` arithmetic."""
    from decimal import Context, Decimal

    x = Context(prec=40).ln(Decimal(k))
    return float(x), float(x - Decimal(float(x)))


class _LogFactorials:
    """log k! as (hi, lo) arrays with hi + lo exact to ~32 digits.

    One table per process, computed in 40-digit `decimal` arithmetic and grown
    to the largest k asked for; `decimal` is imported on the first growth.
    """

    def __init__(self):
        self.hi = self.lo = np.zeros(1)
        self._top = None  # log of the last tabled factorial, as a Decimal

    def __call__(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The table, covering k = 0..n at least."""
        if n >= len(self.hi):
            from decimal import Context, Decimal

            ctx = Context(prec=40)
            top = Decimal(0) if self._top is None else self._top
            hi, lo = [], []
            for k in range(len(self.hi), n + 1):
                top = ctx.add(top, ctx.ln(Decimal(k)))
                h = float(top)
                hi.append(h)
                lo.append(float(ctx.subtract(top, Decimal(h))))
            self._top = top
            self.hi = np.concatenate([self.hi, hi])
            self.lo = np.concatenate([self.lo, lo])
        return self.hi, self.lo


log_factorials = _LogFactorials()


def toeplitz(fs: list[ChartFunction], basis, ncols: int) -> np.ndarray:
    """Matrices <e_r, f e_col>, f in `fs`, stacked: rows every e_alpha =
    z^alpha/||z^alpha|| of the monomial `basis`, columns its first `ncols`.

    A term c z^gamma zbar^beta/(1+w)^m takes z^col to c exp(log <z^r, z^e
    zbar^beta/(1+w)^m> - log||z^r|| - log||z^col||) e_r, e = col + gamma,
    r = e - beta >= 0, the logs (hi, lo) pairs, from the basis's `exps`,
    `log_norms`, `log_pairing(e, beta, m)` and `row(r)` (-1: z^r leaves the
    space).  Each matrix is the same to the bit as when built alone.  A
    symbol whose keys are not 2n long for the basis's n variables raises
    ValueError.
    """
    n = basis.exps.shape[1]
    out = np.zeros((len(fs), len(basis.exps), ncols), dtype=complex)
    owner = np.array([g for g, f in enumerate(fs) for _ in f.terms], dtype=np.int64)
    if not owner.size:
        return out
    keys = np.array([key for f in fs for key in f.terms], dtype=np.int64)
    if keys.shape[1] != 2 * n:
        raise ValueError(f"symbol keys have {keys.shape[1]} entries; a basis in {n} variables needs {2 * n}")
    m = np.array([f.denom for f in fs for _ in f.terms], dtype=np.int64)
    c = np.array([c for f in fs for c in f.terms.values()], dtype=complex)
    e = basis.exps[:ncols] + keys[:, None, :n]
    term, col = np.nonzero(np.all(e >= keys[:, None, n:], axis=2))
    e, beta = e[term, col], keys[term, n:]
    rows = basis.row(e - beta)
    keep = rows >= 0
    term, col, rows, e, beta = term[keep], col[keep], rows[keep], e[keep], beta[keep]
    hi, lo = basis.log_norms
    logv = dd_sum(
        basis.log_pairing(e, beta, m[term]),
        (-hi[rows], -lo[rows]),
        (-hi[col], -lo[col]),
    )
    np.add.at(out, (owner[term], rows, col), c[term] * dd_exp(logv))
    return out


def curvatures(pairs: list, bases, symbol, bracket, extra=()):
    """Y = T_bracket - [B2, B1] for each pair (f1, f2) of chart functions at
    each basis in `bases`, with the Toeplitz matrices of the symbols `extra`.

    The model supplies `symbol(f)`, which forms the level-free algebra of f
    once and returns N -> the symbol of its compressed operator; `bracket`,
    Pi [D2, D1] Pi being T of symbol(bracket(f1, f2)); and `columns(order)`
    of a basis, the leading columns an operator of that order keeps in the
    space.  An f passed as the same object in several pairs gets one matrix.
    Where every column survives (the sphere) a level is one `toeplitz` pass;
    otherwise (Fock) the operators take one on columns(2), the brackets and
    `extra` another on columns(4), Y's columns.  Each Y is formed in place in
    its bracket's matrix.  Yields, per basis, the stacked Y and `extra`.
    """
    fs = {id(f): f for pair in pairs for f in pair}
    at = {key: i for i, key in enumerate(fs)}
    ops = [symbol(f) for f in fs.values()]
    brackets = [symbol(bracket(f1, f2)) for f1, f2 in pairs]
    for basis in bases:
        m, k = basis.columns(2), basis.columns(4)
        level = [s(basis.N) for s in ops]
        rest = [s(basis.N) for s in brackets] + list(extra)
        if k == basis.dim:
            mats = toeplitz(level + rest, basis, k)
            b, rest = mats[: len(level)], mats[len(level) :]
        else:
            b, rest = toeplitz(level, basis, m), toeplitz(rest, basis, k)
        for y, (f1, f2) in zip(rest, pairs):
            b1, b2 = b[at[id(f1)]], b[at[id(f2)]]
            y -= b2 @ b1[:m, :k] - b1 @ b2[:m, :k]
        yield rest[: len(pairs)], rest[len(pairs) :]
