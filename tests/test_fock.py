import functools
import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from quantcurv import fock
from quantcurv.experiments import ConfigError, run_experiment, validate_config
from quantcurv.fock import (
    DegreeOverflowError,
    FockTruncation,
    curvature_operator,
    flat_curvature_operator,
    hamiltonian_bipoly,
    scalar_fit,
    verify_scalar_curvature,
)
from quantcurv import toeplitz as engine
from quantcurv.toeplitz import ChartFunction, toeplitz
from quantcurv.symplectic import (
    QuadraticHamiltonian,
    hamiltonian_from_form,
    omega_pairing,
    p_minus_basis,
    p_plus_basis,
)
from curvature_oracle import compressed_curvature
from fock_oracle import (
    bargmann_generator, hamiltonian_products, lie_derivative, project, square, value,
)

# (literal reference, Toeplitz symbol as a function of N, factor c of the
# bracket symbol symbol(c P), curvature function)
SPECS = [
    pytest.param((lie_derivative, fock._lie_symbol, 2.0, curvature_operator), id="_lie_operator"),
    pytest.param(
        (bargmann_generator, fock._generator_symbol, -1.0, flat_curvature_operator),
        id="_bargmann_operator",
    ),
]


def _random_quadratic(n, rng):
    quad = [a + b for a in itertools.product(range(3), repeat=n)
            for b in itertools.product(range(3), repeat=n) if sum(a) + sum(b) == 2]
    return ChartFunction({key: complex(*rng.standard_normal(2)) for key in quad})


@functools.cache
def _rows(tr):
    # {alpha: row} of the truncation's basis
    return {alpha: i for i, alpha in enumerate(tr.basis())}


def _norm_constant(tr, alpha):
    # sqrt(N^|alpha| / alpha!) normalizing z^alpha, for alpha in the truncation
    (hi, lo), i = tr.log_norms, _rows(tr)[alpha]
    return math.exp(-(hi[i] + lo[i]))


def _columns(images, tr):
    # projected images of the first len(images) basis monomials, in the e_alpha basis
    mat = np.zeros((tr.dim, len(images)), dtype=complex)
    rows = _rows(tr)
    for i, (alpha, image) in enumerate(zip(tr.basis(), images)):
        for key, c in project(image, tr.N).terms.items():
            beta = key[: tr.n]
            mat[rows[beta], i] = c * _norm_constant(tr, alpha) / _norm_constant(tr, beta)
    return mat


def _projected_columns(op, tr):
    # project(op(z^alpha)) in the e_alpha basis, for columns of degree <= D - 2
    k = tr.dim_up_to(tr.D - 2)
    return _columns([op(ChartFunction.monomial(alpha)) for alpha in tr.basis()[:k]], tr)


def _lie_matrix(h, tr):
    # square block of T_{sigma_L(h)} on degree <= D - 2
    k = tr.dim_up_to(tr.D - 2)
    return toeplitz([fock._lie_symbol(h)(tr.N)], tr, k)[0][:k]


def _pair_monomial(n, i, j):
    alpha = [0] * n
    alpha[i] += 1
    alpha[j] += 1
    return tuple(alpha)


def _random_chart_function(n, denom, rng):
    # every term of total degree <= 3, complex coefficients
    degs = [a for a in itertools.product(range(4), repeat=n) if sum(a) <= 3]
    keys = [a + b for a in degs for b in degs if sum(a) + sum(b) <= 3]
    return ChartFunction({key: complex(*rng.standard_normal(2)) for key in keys}, denom)


def _wirtinger_fd(f, z, j, h=1e-3):
    # d/dz_j and d/dzbar_j at z of a chart function or a callable, from
    # fourth-order central differences in x_j, y_j
    fn = f if callable(f) else lambda x: value(f, x)

    def d(step):
        e = np.zeros(len(z), dtype=complex)
        e[j] = step
        return (8.0 * (fn(z + e) - fn(z - e)) - (fn(z + 2 * e) - fn(z - 2 * e))) / (12.0 * h)

    fx, fy = d(h), d(1j * h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def _algebra_cases():
    rng = np.random.default_rng(11)
    z, zbar = ChartFunction.monomial(1), ChartFunction.monomial(0, 1)
    cases = [pytest.param(z, zbar, id="z-zbar"), pytest.param(z * zbar, z, id="w-z")]
    for m1, m2 in ((0, 0), (0, 1), (1, 1)):
        f, g = (_random_chart_function(2, m, rng) for m in (m1, m2))
        cases.append(pytest.param(f, g, id=f"n2-denoms-{m1}{m2}"))
    return cases


@pytest.mark.parametrize("f, g", _algebra_cases())
def test_chart_function_algebra_against_point_values(f, g):
    # +, *, conj, imag against point values, dz_j and dzbar_j against central
    # differences, at random points of C^n, each to 1e-10 relative
    n = f.nvars
    rng = np.random.default_rng(3)
    pts = 0.7 * (rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n)))
    checks = {
        "add": (f + g, lambda pt: value(f, pt) + value(g, pt)),
        "mul": (f * g, lambda pt: value(f, pt) * value(g, pt)),
        "conj": (f.conj(), lambda pt: np.conj(value(f, pt))),
        "imag": (f.imag(), lambda pt: value(f, pt).imag),
    }
    for j in range(n):
        for side, deriv in enumerate((f.dz(j), f.dzbar(j))):
            checks[f"d{side}{j}"] = (deriv, lambda pt, j=j, side=side: _wirtinger_fd(f, pt, j)[side])
    # relative to the reference values, or to f's where those vanish (dzbar z)
    floor = max(abs(value(f, pt)) for pt in pts)
    for name, (got, ref) in checks.items():
        got_v = np.array([value(got, pt) for pt in pts])
        ref_v = np.array([ref(pt) for pt in pts])
        scale = max(float(np.max(np.abs(ref_v))), floor)
        assert np.max(np.abs(got_v - ref_v)) <= 1e-10 * scale, name


@pytest.mark.parametrize("n", [1, 2])
def test_polynomial_derivatives_stay_polynomials(n):
    # over denominator power 0, d/dz_j and d/dzbar_j are the plain derivatives
    # (their values are checked above); over m > 0 the quotient rule puts them
    # over m + 1
    rng = np.random.default_rng(n)
    for m in (0, 1, 2):
        f = _random_chart_function(n, m, rng)
        for j in range(n):
            assert f.dz(j).denom == f.dzbar(j).denom == (m + 1 if m else 0)


def test_projection_rational_oracles():
    # projecting zbar z divides by N; zbar^2 z^2 picks up 2/N^2
    for big_n in (1, 4, 10):
        f = ChartFunction.monomial((1,), (1,))
        p = project(f, big_n)
        assert value(p, np.array([0.0])) == pytest.approx(1.0 / big_n, abs=1e-14)
        f2 = ChartFunction.monomial((2,), (2,))
        p2 = project(f2, big_n)
        assert value(p2, np.array([0.0])) == pytest.approx(2.0 / big_n**2, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("big_n", [1, 4, 10])
def test_projection_derivative_identity(n, big_n):
    # projection of zbar^beta z^alpha equals N^{-|beta|} d^beta z^alpha,
    # checked coefficientwise on every monomial with |alpha|, |beta| <= 3
    rng = np.random.default_rng(42)
    degs = [a for a in itertools.product(range(4), repeat=n) if sum(a) <= 3]
    pts = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
    worst = 0.0
    for alpha in degs:
        for beta in degs:
            f = ChartFunction.monomial(alpha, beta)
            lhs = project(f, big_n)
            g = ChartFunction.monomial(alpha)
            for j, b in enumerate(beta):
                for _ in range(b):
                    g = g.dz(j)
            scale = float(big_n) ** (-sum(beta))
            for pt in pts:
                worst = max(worst, abs(value(lhs, pt) - scale * value(g, pt)))
    assert worst < 1e-12


def test_truncation_basis_and_dims():
    tr = FockTruncation(2, 4, 3)
    # monomials of total degree <= 3 in 2 variables: 1 + 2 + 3 + 4 = 10
    assert tr.dim == 10
    assert tr.dim_up_to(0) == 1
    assert tr.dim_up_to(1) == 3
    assert len(tr.basis()) == 10
    assert tr.basis()[0] == (0, 0)
    assert tr.dim_up_to(-1) == 0 and tr.dim_up_to(2) == 6 and tr.dim_up_to(7) == 10
    # squared norm of z^k in one variable is k! / N^k, so the normalizing
    # constant is sqrt(N^k / k!)
    tr1 = FockTruncation(1, 4, 6)
    for k in range(5):
        assert _norm_constant(tr1, (k,)) == pytest.approx(
            math.sqrt(4.0**k / math.factorial(k)), rel=1e-14
        )


def test_truncation_basis_is_a_copy_of_the_cache():
    tr = FockTruncation(2, 4, 3)
    b = tr.basis()
    b.clear()
    assert tr.basis()[:3] == [(0, 0), (0, 1), (1, 0)]
    assert tr.dim == 10


def test_scalar_fit_reports_off_identity_part():
    mat = np.zeros((7, 5), dtype=complex)
    mat[:5, :5] = 2j * np.eye(5)
    assert scalar_fit(mat) == (2j, 0.0)
    mat[6, 1] = 3.0  # a row outside the square block still counts
    scalar, deviation = scalar_fit(mat)
    assert scalar == 2j
    assert deviation == pytest.approx(3.0 / math.sqrt(5), rel=1e-15)


@pytest.mark.parametrize("n, D", [(1, 8), (2, 7)])
def test_curvature_matches_columnwise_reference(n, D):
    # pi [G2, G1] pi - [pi G2 pi, pi G1 pi] composed symbolically, one column
    # at a time, against the matrix products of the shared routine
    big_n = 3
    tr = FockTruncation(n, big_n, D)
    rng = np.random.default_rng(5)
    h1, h2 = _random_quadratic(n, rng), _random_quadratic(n, rng)
    got = flat_curvature_operator([(h1, h2)], tr)[0]

    def lie(h, f):
        return bargmann_generator(h, f, big_n)

    rows = _rows(tr)
    worst = 0.0
    for i, alpha in enumerate(tr.basis()[: tr.dim_up_to(D - 4)]):
        f = ChartFunction.monomial(alpha)
        p1, p2 = project(lie(h1, f), big_n), project(lie(h2, f), big_n)
        ref = project(lie(h2, lie(h1, f)) - lie(h1, lie(h2, f)), big_n) - (
            project(lie(h2, p1), big_n) - project(lie(h1, p2), big_n)
        )
        for key, c in ref.terms.items():
            beta = key[:n]
            expect = c * _norm_constant(tr, alpha) / _norm_constant(tr, beta)
            worst = max(worst, abs(got[rows[beta], i] - expect))
        ref_rows = {rows[key[:n]] for key in ref.terms}
        rest = [r for r in range(tr.dim) if r not in ref_rows]
        worst = max(worst, float(np.max(np.abs(got[rest, i]), initial=0.0)))
    assert worst < 1e-12 * max(1.0, float(np.max(np.abs(got))))


def _decimal_toeplitz(tr, f, ncols):
    """<e_r, T_f e_col> at 40 digits: c z^gamma zbar^beta takes z^col to
    c N^-|beta| e!/r! z^r, e = col + gamma, r = e - beta (nothing when some
    r_j < 0), and e_alpha = z^alpha sqrt(N^|alpha|/alpha!)."""
    n, fact, rows = tr.n, math.factorial, _rows(tr)
    out = np.zeros((tr.dim, ncols), dtype=complex)
    with localcontext() as ctx:
        ctx.prec = 40
        big_n = Decimal(tr.N)

        def norm(alpha):
            return (big_n ** sum(alpha) / math.prod(fact(a) for a in alpha)).sqrt()

        for i, col in enumerate(tr.basis()[:ncols]):
            sums = {}
            for key, c in f.terms.items():
                e = [a + g for a, g in zip(col, key[:n])]
                r = tuple(x - b for x, b in zip(e, key[n:]))
                if min(r) < 0:
                    continue
                w = Decimal(math.prod(fact(x) for x in e)) / math.prod(fact(x) for x in r)
                w = w / big_n ** sum(key[n:]) * norm(col) / norm(r)
                re, im = sums.get(r, (Decimal(0), Decimal(0)))
                sums[r] = (re + Decimal(c.real) * w, im + Decimal(c.imag) * w)
            for r, (re, im) in sums.items():
                out[rows[r], i] = complex(float(re), float(im))
    return out


def test_toeplitz_matches_decimal_oracle():
    # generator, Lie and bracket symbols of random quadratics at n = 2;
    # zbar^3 at a level where N^(3/2) is large; and zbar^40 at N = 1e9, whose
    # one entry <e_0, T e_40> = sqrt(40!/N^40) = 9.0e-157 although N^40 is no
    # double: each matrix to a few ulp of its largest entry
    tr = FockTruncation(2, 4, 10)
    rng = np.random.default_rng(11)
    h1, h2 = _random_quadratic(2, rng), _random_quadratic(2, rng)
    k = tr.dim_up_to(8)
    cases = [
        (tr, fock._generator_symbol(h1)(tr.N), k),
        (tr, fock._lie_symbol(h2)(tr.N), k),
        (tr, fock._lie_symbol(fock._poisson(h1, h2, 2.0))(tr.N), k),
        (FockTruncation(1, 3 * 10**6, 12), ChartFunction.monomial(0, 3, coeff=0.3 - 1.1j), 11),
        (FockTruncation(1, 10**9, 40), ChartFunction.monomial(0, 40), 41),
    ]
    for tr, f, ncols in cases:
        want = _decimal_toeplitz(tr, f, ncols)
        got = toeplitz([f], tr, ncols)[0]
        assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(want))


def test_lie_matrix_rotation_is_diagonal():
    # H = |z|^2 generates rotation; its operator is diagonal on monomials
    tr = FockTruncation(1, 5, 8)
    h = ChartFunction.monomial((1,), (1,))
    mat = _lie_matrix(h, tr)
    off = mat - np.diag(np.diag(mat))
    assert np.max(np.abs(off)) < 1e-13


def test_curvature_z2_zbar2_oracle():
    tr = FockTruncation(1, 4, 12)
    z2 = ChartFunction.monomial((2,))
    zb2 = ChartFunction.monomial((0,), (2,))
    mat = square(curvature_operator([(z2, zb2)], tr)[0])
    assert np.max(np.abs(mat - 8.0 * np.eye(mat.shape[0]))) < 1e-10
    # antisymmetry in the two arguments
    mat2 = square(curvature_operator([(zb2, z2)], tr)[0])
    assert np.max(np.abs(mat + mat2)) < 1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_curvature_mixed_pair_identity(n):
    # curv(z_m z_l, zbar_r zbar_s) = 4 (d_mr d_ls + d_ms d_lr) Id
    tr = FockTruncation(n, 4, 10)
    idx = list(itertools.combinations_with_replacement(range(n), 2))
    for (m, l) in idx:
        for (r, s) in idx:
            zz = ChartFunction.monomial(_pair_monomial(n, m, l))
            bb = ChartFunction.monomial((0,) * n, _pair_monomial(n, r, s))
            mat = square(curvature_operator([(zz, bb)], tr)[0])
            expect = 4.0 * ((m == r) * (l == s) + (m == s) * (l == r))
            assert np.max(np.abs(mat - expect * np.eye(mat.shape[0]))) < 1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_curvature_deformation_pair_identity(n):
    # curv(H+_ab, H-_rs) = -8i (d_ar d_bs + d_as d_br) Id, and the flat
    # projector-compression model gives the same with constant -2i
    tr = FockTruncation(n, 4, 10)
    plus = p_plus_basis(n)
    minus = p_minus_basis(n)
    idx = list(itertools.combinations_with_replacement(range(n), 2))
    for i, (a, b) in enumerate(idx):
        for j, (r, s) in enumerate(idx):
            hp = hamiltonian_bipoly(plus[i])
            hm = hamiltonian_bipoly(minus[j])
            delta = (a == r) * (b == s) + (a == s) * (b == r)
            mat = square(curvature_operator([(hp, hm)], tr)[0])
            assert np.max(np.abs(mat - (-8.0j) * delta * np.eye(mat.shape[0]))) < 1e-10
            matf = square(flat_curvature_operator([(hp, hm)], tr)[0])
            assert np.max(np.abs(matf - (-2.0j) * delta * np.eye(matf.shape[0]))) < 1e-10


def test_curvature_same_sector_vanishes():
    tr = FockTruncation(1, 4, 10)
    hp = hamiltonian_bipoly(p_plus_basis(1)[0])
    mat = square(curvature_operator([(hp, hp)], tr)[0])
    assert np.max(np.abs(mat)) < 1e-12


def test_scalar_ratio_constant_over_random_pairs():
    # the two curvature constructions agree up to the fixed factor -i/2
    tr = FockTruncation(1, 4, 12)
    rng = np.random.default_rng(2024)
    ratios = []
    for _ in range(20):
        cp = rng.standard_normal(2)
        cm = rng.standard_normal(2)
        x1 = cp[0] * p_plus_basis(1)[0].generator + cm[0] * p_minus_basis(1)[0].generator
        x2 = cp[1] * p_plus_basis(1)[0].generator + cm[1] * p_minus_basis(1)[0].generator
        if abs(omega_pairing(x1, x2)) < 1e-6:
            continue
        rec = verify_scalar_curvature([(QuadraticHamiltonian(x1), QuadraticHamiltonian(x2))], tr)[0]
        assert rec["deviation"] <= 1e-8
        assert rec["dim"] == tr.dim_up_to(tr.D - 4) == 9  # the columns fitted
        ratios.append(rec["ratio"])
    ratios = np.array(ratios)
    assert len(ratios) >= 15
    assert np.max(np.abs(ratios - (-0.5j))) < 1e-6


def test_bargmann_generator_monomial_action():
    # G for H = |z|^2 multiplies z^k by ik (rotation with integer speeds)
    big_n = 5
    h = ChartFunction.monomial((1,), (1,))
    for k in range(4):
        f = ChartFunction.monomial((k,))
        g = bargmann_generator(h, f, big_n)
        pts = np.array([[0.7 + 0.2j], [1.1 - 0.4j]])
        for pt in pts:
            assert value(g, pt) == pytest.approx(1j * k * value(f, pt), abs=1e-12)


def test_lie_derivative_respects_degree_bands():
    # quadratic Hamiltonians move degree by at most 2
    tr = FockTruncation(1, 4, 8)
    hp = hamiltonian_bipoly(p_plus_basis(1)[0])
    mat = _lie_matrix(hp, tr)
    block = tr.basis()[: mat.shape[0]]
    for col, alpha in enumerate(block):
        for row, beta in enumerate(block):
            if abs(sum(beta) - sum(alpha)) > 2 and abs(mat[row, col]) > 1e-13:
                raise AssertionError(
                    f"entry ({beta}, {alpha}) = {mat[row, col]} outside degree band"
                )


def test_degree_overflow_guard():
    tr = FockTruncation(1, 4, 3)
    z2 = ChartFunction.monomial((2,))
    zb2 = ChartFunction.monomial((0,), (2,))
    with pytest.raises(DegreeOverflowError):
        curvature_operator([(z2, zb2)], tr)


def test_lie_derivative_linear():
    h = hamiltonian_bipoly(p_plus_basis(1)[0])
    f = ChartFunction.monomial((1,))
    g = ChartFunction.monomial((2,))
    lhs = lie_derivative(h, f + g, 4)
    rhs = lie_derivative(h, f, 4) + lie_derivative(h, g, 4)
    pts = np.array([[0.3 + 0.1j], [1.2 - 0.7j]])
    for pt in pts:
        assert value(lhs, pt) == pytest.approx(value(rhs, pt), abs=1e-12)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("big_n", [1, 4, 6])
def test_first_order_operators_match_literal_formula(n, big_n):
    # the two literal references against their defining formulas at points,
    # every derivative a central difference: the derivation of the full state
    # g exp(-N|z|^2/2) along xi_H, and the generator
    # sum_j [i H_{zbar_j} (g_{z_j} - N zbar_j g) - i H_{z_j} g_{zbar_j}] + i N H g;
    # inputs carry zbar terms, so that every d/dzbar part contributes
    rng = np.random.default_rng(100 * n + big_n)
    degs = [a for a in itertools.product(range(4), repeat=n) if sum(a) <= 3]
    pts = 0.5 * (rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n)))

    def gauss(x):
        return np.exp(-0.5 * big_n * np.vdot(x, x).real)

    for _ in range(4):
        h = _random_quadratic(n, rng)
        keys = [a + b for a in degs for b in degs if rng.random() < 0.5]
        g = ChartFunction({key: complex(*rng.standard_normal(2)) for key in keys})
        lie, gen = lie_derivative(h, g, big_n), bargmann_generator(h, g, big_n)
        for pt in pts:
            dh = [_wirtinger_fd(h, pt, j) for j in range(n)]
            dg = [_wirtinger_fd(g, pt, j) for j in range(n)]
            ds = [_wirtinger_fd(lambda x: value(g, x) * gauss(x), pt, j) for j in range(n)]
            want_lie = sum(2j * (hz * sb - hb * sz) for (hz, hb), (sz, sb) in zip(dh, ds))
            want_lie /= gauss(pt)
            gv = value(g, pt)
            want_gen = 1j * big_n * value(h, pt) * gv + sum(
                1j * hb * (gz - big_n * np.conj(pt[j]) * gv) - 1j * hz * gb
                for j, ((hz, hb), (gz, gb)) in enumerate(zip(dh, dg))
            )
            # fourth-order differences at step 1e-3: measured <= 9.3e-11
            # relative, so 1e-9 leaves a 10x margin
            for got, want in ((lie, want_lie), (gen, want_gen)):
                assert abs(value(got, pt) - want) <= 1e-9 * abs(want)


def test_curvature_operator_products_independent_of_degree(monkeypatch):
    # the operators are built once per Hamiltonian, so the ChartFunction
    # products a curvature matrix needs do not grow with its columns
    calls = []
    mul = ChartFunction.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(ChartFunction, "__mul__", counting_mul)
    h1 = hamiltonian_bipoly(p_plus_basis(2)[0])
    h2 = hamiltonian_bipoly(p_minus_basis(2)[1])
    counts = []
    for D in (8, 10):
        calls.clear()
        curvature_operator([(h1, h2)], FockTruncation(2, 4, D))
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("n", [1, 2])
def test_bracket_matches_symbolic_composition(n, spec):
    # T of the bracket symbol against pi (D2 (D1 f) - D1 (D2 f)), composed
    # with the literal references on every column; complex random
    # quadratics, so the d/dzbar part is not the conjugate of the d/dz part
    # (the images of degree-D - 4 columns are within D before cancellation)
    literal, symbol, c, _build = spec
    big_n = 3
    rng = np.random.default_rng(40 + n)
    tr = FockTruncation(n, big_n, 8)
    k = tr.dim_up_to(tr.D - 4)
    for _ in range(3):
        h1, h2 = (_random_quadratic(n, rng) for _ in range(2))
        ref = _columns(
            [
                literal(h2, literal(h1, f, big_n), big_n) - literal(h1, literal(h2, f, big_n), big_n)
                for f in map(ChartFunction.monomial, tr.basis()[:k])
            ],
            tr,
        )
        got = toeplitz([symbol(fock._poisson(h1, h2, c))(big_n)], tr, k)[0]
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("n, D", [(1, 10), (2, 8)])
def test_operator_matrix_matches_projected_images(n, D, spec):
    # T of the symbol against the projected images of the literal
    # reference, all rows
    literal, symbol, _c, _build = spec
    rng = np.random.default_rng(60 + n)
    tr = FockTruncation(n, 4, D)
    k = tr.dim_up_to(D - 2)
    for _ in range(3):
        h = _random_quadratic(n, rng)
        ref = _projected_columns(lambda f: literal(h, f, tr.N), tr)
        got = toeplitz([symbol(h)(tr.N)], tr, k)[0]
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("n, D", [(1, 8), (2, 7)])
def test_curvature_matches_compressed_curvature_oracle(n, D, spec):
    # the three Toeplitz matrices of a curvature against the literal
    # references composed one image at a time, for library and random
    # complex quadratics
    literal, _symbol, _c, build = spec
    big_n = 3
    tr = FockTruncation(n, big_n, D)
    rng = np.random.default_rng(80 + n)
    hams = [hamiltonian_bipoly(p_plus_basis(n)[0]), hamiltonian_bipoly(p_minus_basis(n)[-1])]
    hams += [_random_quadratic(n, rng) for _ in range(2)]
    basis = [ChartFunction.monomial(alpha) for alpha in tr.basis()[: tr.dim_up_to(D - 2)]]
    for h1, h2 in itertools.combinations(hams, 2):
        got = build([(h1, h2)], tr)[0]
        ref = compressed_curvature(
            basis,
            lambda f: literal(h1, f, big_n),
            lambda f: literal(h2, f, big_n),
            lambda images: _columns(images, tr),
            got.shape[1],
        )
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_toeplitz_exact_where_integer_powers_of_n_overflow():
    # <e_0, T_{zbar^3} e_3> = sqrt(3!/N^3), with N^3 past the int64 range
    big_n = 3_000_000
    (t,) = toeplitz([ChartFunction.monomial((0,), (3,))], FockTruncation(1, big_n, 8), 4)
    assert t[0, 3] == pytest.approx(math.sqrt(6.0 / big_n**3), rel=1e-14)


@pytest.mark.parametrize("n, D", [(1, 10), (2, 8)])
def test_batched_toeplitz_equals_separate_builds(n, D):
    # one pass over many symbols, an empty one among them, gives each matrix
    # to the bit
    rng = np.random.default_rng(20 + n)
    tr = FockTruncation(n, 4, D)
    k = tr.dim_up_to(D - 2)
    hams = [hamiltonian_bipoly(q) for q in p_plus_basis(n) + p_minus_basis(n)]
    hams += [_random_quadratic(n, rng) for _ in range(2)]
    cases = [fock._lie_symbol(h)(tr.N) for h in hams] + [ChartFunction()]
    cases += [fock._generator_symbol(fock._poisson(hams[0], h, -1.0))(tr.N) for h in hams[1:]]
    stack = toeplitz(cases, tr, k)
    assert stack.shape == (len(cases), tr.dim, k)
    for got, f in zip(stack, cases):
        assert np.array_equal(got, toeplitz([f], tr, k)[0])
    assert not stack[len(hams)].any()
    assert toeplitz([], tr, k).shape == (0, tr.dim, k)
    # one symbol whose image leaves the truncation fails the whole batch
    z3 = ChartFunction({(3,) + (0,) * (2 * n - 1): 1.0})
    with pytest.raises(DegreeOverflowError, match=f"output degree {D + 1}"):
        toeplitz(cases + [z3], tr, k)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hamiltonian_bipoly_matches_products_of_chart_functions(n):
    # the one-pass rewrite against sum_ab S_ab v_a v_b formed with
    # ChartFunction products: the same terms, in the same order (the order
    # of the terms fixes the rounding of every matrix built from them)
    rng = np.random.default_rng(30 + n)
    hams = p_plus_basis(n) + p_minus_basis(n)
    for _ in range(24):
        a = rng.standard_normal((2 * n, 2 * n)) * 10.0 ** rng.integers(-3, 4, (2 * n, 2 * n))
        a[rng.random((2 * n, 2 * n)) < 0.3] = 0.0
        hams.append(hamiltonian_from_form(a + a.T))
    for q in hams:
        got, want = hamiltonian_bipoly(q), hamiltonian_products(q)
        assert got.terms == want.terms
        assert list(got.terms) == list(want.terms)


def _random_deformation_pairs(count, rng):
    gp, gm = p_plus_basis(1)[0].generator, p_minus_basis(1)[0].generator
    pairs = []
    while len(pairs) < count:
        c = rng.standard_normal(4)
        q1 = QuadraticHamiltonian(c[0] * gp + c[1] * gm)
        q2 = QuadraticHamiltonian(c[2] * gp + c[3] * gm)
        if abs(omega_pairing(q1.generator, q2.generator)) >= 1e-6:
            pairs.append((q1, q2))
    return pairs


def test_scalar_curvature_batch_equals_pairs_checked_alone():
    tr = FockTruncation(1, 4, 10)
    pairs = _random_deformation_pairs(5, np.random.default_rng(8))
    pairs.append(pairs[0][::-1])  # a Hamiltonian in two pairs is built once
    batch = verify_scalar_curvature(pairs, tr)
    assert batch == [verify_scalar_curvature([pair], tr)[0] for pair in pairs]
    assert batch[-1]["scalar"] == pytest.approx(-batch[0]["scalar"], rel=1e-12)


def test_random_pair_batch_stops_at_first_failing_pair():
    # every pair deviates from a scalar by rounding, so a tol_scalar below
    # it fails the first pair checked: no ratio is valid
    params = {"n": 1, "N": 4, "D": 8, "n_random_pairs": 4, "tol_scalar": 1e-300}
    _columns, rows, ok = run_experiment("bargmann-curvature", params, np.random.default_rng(3))
    by_case = {row[0]: row for row in rows}
    spread, value_row = by_case["scalar-ratio-spread"], by_case["scalar-ratio-value"]
    assert not ok
    assert spread[4] == math.inf and spread[-1] is False
    assert math.isnan(value_row[4]) and math.isnan(value_row[5]) and not value_row[-1]


def test_toeplitz_calls_per_run_independent_of_random_pairs(monkeypatch):
    # a curvature batch is two engine passes, the operators and then the
    # brackets, and the random pairs are one batch, so a run's passes do not
    # grow with their number
    calls = []
    real = engine.toeplitz

    def counting_toeplitz(fs, basis, ncols):
        calls.append(len(fs))
        return real(fs, basis, ncols)

    monkeypatch.setattr(engine, "toeplitz", counting_toeplitz)
    h1 = hamiltonian_bipoly(p_plus_basis(2)[0])
    h2 = hamiltonian_bipoly(p_minus_basis(2)[1])
    curvature_operator([(h1, h2), (h2, h1), (h1, h1)], FockTruncation(2, 4, 8))
    assert calls == [2, 3]
    counts = []
    for pairs in (2, 7):
        calls.clear()
        params = {"n": 2, "N": 4, "D": 8, "n_random_pairs": pairs}
        assert run_experiment("bargmann-curvature", params, np.random.default_rng(5))[2]
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("build", [curvature_operator, flat_curvature_operator])
def test_curvature_of_one_object_twice_equals_two_copies(build):
    # a pair made of the same object twice gets one matrix for both sides,
    # and the same columns to the bit as two equal copies
    tr = FockTruncation(2, 4, 8)
    for q in p_plus_basis(2) + p_minus_basis(2):
        h = hamiltonian_bipoly(q)
        (same,), (copies,) = build([(h, h)], tr), build([(h, hamiltonian_bipoly(q))], tr)
        assert np.array_equal(same, copies)


@pytest.mark.parametrize("build", [curvature_operator, flat_curvature_operator])
def test_degree_overflow_for_images_leaving_the_truncation(build):
    # z^3 raises degree by 3, so the degree-6 column of D = 8 lands at 9
    z3 = ChartFunction.monomial((3,))
    zb2 = ChartFunction.monomial((0,), (2,))
    for h1, h2 in ((z3, zb2), (zb2, z3)):
        with pytest.raises(DegreeOverflowError, match="output degree 9"):
            build([(h1, h2)], FockTruncation(1, 4, 8))
    with pytest.raises(DegreeOverflowError):
        build([(zb2, zb2)], FockTruncation(2, 4, 3))


def test_curvature_operator_constructions_independent_of_degree(monkeypatch):
    # the images are closed form, so no ChartFunction is built per column
    calls = []
    init = ChartFunction.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    h1 = hamiltonian_bipoly(p_plus_basis(2)[0])
    h2 = hamiltonian_bipoly(p_minus_basis(2)[1])
    monkeypatch.setattr(ChartFunction, "__init__", counting_init)
    counts = []
    for D in (8, 10):
        calls.clear()
        curvature_operator([(h1, h2)], FockTruncation(2, 4, D))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def _bargmann_config(n, N, D):
    return {
        "seed": 1,
        "experiments": [
            {
                "experiment": "bargmann-curvature",
                "parameters": {"n": n, "N": N, "D": D},
                "output_path": "b.csv",
            }
        ],
    }


@pytest.mark.parametrize("n", [1, 2])
def test_config_rejects_fock_sizes_past_bounds(n):
    # validated only: a run at the bounds takes 7-9 s at n = 2
    validate_config(_bargmann_config(n, fock.FOCK_LEVEL_MAX, fock.FOCK_DEGREE_MAX))
    with pytest.raises(ConfigError, match="bargmann N must be <= 50000000"):
        validate_config(_bargmann_config(n, fock.FOCK_LEVEL_MAX + 1, 10))
    with pytest.raises(ConfigError, match="bargmann D must be <= 40"):
        validate_config(_bargmann_config(n, 4, fock.FOCK_DEGREE_MAX + 1))
    with pytest.raises(ConfigError, match="bargmann N"):
        validate_config(_bargmann_config(n, 10**150, 10))
