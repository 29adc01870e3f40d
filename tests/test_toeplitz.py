from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from quantcurv.fock import FockTruncation
from quantcurv.sphere import SectionBasis
from quantcurv.toeplitz import ChartFunction, dd_log, dd_times, log_factorials, toeplitz


def _exact(pair) -> Fraction:
    return Fraction(float(pair[0])) + Fraction(float(pair[1]))


def test_log_factorials_grown_in_steps_equal_one_growth():
    # the table carries its running Decimal sum across growths
    steps, once = type(log_factorials)(), type(log_factorials)()
    steps(100)
    steps(3000)
    once(3000)
    assert np.array_equal(steps.hi, once.hi) and np.array_equal(steps.lo, once.lo)


def test_log_factorials_match_50_digit_sums():
    # hi + lo holds log k! to ~32 digits: the lo part is rounded at
    # 2**-53 of itself, at most 2**-106 of hi, and the table's 40-digit sums
    # are far below that, so 2**-104 leaves a factor 4
    hi, lo = log_factorials(3000)
    with localcontext() as ctx:
        ctx.prec = 50
        total = Decimal(0)
        for k in range(3001):
            if k:
                total += Decimal(k).ln()
            err = abs(Decimal(float(hi[k])) + Decimal(float(lo[k])) - total)
            assert err <= Decimal(2.0**-104) * max(total, Decimal(1)), k


@pytest.mark.parametrize("k", [0, 1, 3, 12345, 2**25 + 7, 2**26 - 1])
@pytest.mark.parametrize("N", [2, 7, 1000, 50_000_000])
def test_dd_times_exact(N, k):
    # the split halves of hi times k are exact products, and their sum is
    # carried exactly, so k hi is exact; k lo and the final lo sum are the
    # only roundings, each at most 2**-53 of its result
    pair = dd_log(N)
    assert _exact(dd_times((pair[0], 0.0), k)) == k * Fraction(pair[0])
    hi, lo = dd_times(pair, k)
    err = abs(_exact((hi, lo)) - k * _exact(pair))
    assert err <= Fraction(2.0**-52) * (abs(Fraction(k * pair[1])) + abs(Fraction(lo)))


def test_toeplitz_refuses_keys_of_the_wrong_length():
    # unchecked, a two-variable z1 zbar1/(1+|z|^2) on the sphere would be read
    # as a wrong one-variable symbol (an all-zero diagonal, where |z|^2/(1+|z|^2)
    # reads 1/8 ... 7/8), and a one-variable symbol on the n = 2 Fock basis
    # would fail inside numpy broadcasting
    sphere, fock = SectionBasis(6), FockTruncation(2, 4, 8)
    two = ChartFunction({(1, 0, 1, 0): 1.0}, denom=1)
    one = ChartFunction({(1, 1): 1.0})
    with pytest.raises(ValueError, match="keys have 4 entries; a basis in 1 variables needs 2"):
        toeplitz([two], sphere, sphere.dim)
    with pytest.raises(ValueError, match="keys have 4 entries; a basis in 1 variables needs 2"):
        sphere.toeplitz([two])
    with pytest.raises(ValueError, match="keys have 2 entries; a basis in 2 variables needs 4"):
        toeplitz([one], fock, fock.columns(2))
    # keys of two lengths in one batch: the first wrong length is named
    with pytest.raises(ValueError, match="keys have 4 entries; a basis in 1 variables needs 2"):
        sphere.toeplitz([ChartFunction({(1, 1): 1.0}, denom=1), two])
    # a symbol with no terms has no keys, and is the zero matrix on any basis
    for basis in (sphere, fock):
        (t,) = toeplitz([ChartFunction()], basis, basis.columns(2))
        assert not t.any()
    got = sphere.toeplitz([ChartFunction(), ChartFunction({(1, 1): 1.0}, denom=1)])
    assert not got[0].any()
    assert np.allclose(got[1].diagonal(), np.arange(1, 8) / 8)
