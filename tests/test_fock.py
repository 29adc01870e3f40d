import itertools
import math

import numpy as np
import pytest

from quantcurv import fock
from quantcurv.fock import (
    BiPolynomial,
    DegreeOverflowError,
    FockOperator,
    FockTruncation,
    curvature_operator,
    flat_curvature_operator,
    hamiltonian_bipoly,
    project,
    verify_scalar_curvature,
)
from quantcurv.symplectic import p_minus_basis, p_plus_basis
from fock_oracle import apply, bargmann_generator

SPECS = [fock._lie_operator, fock._bargmann_operator]


def _lie_state_reference(h, g, big_n):
    # derivation along xi_H on g exp(-N|z|^2/2), written out in BiPolynomial ops
    n = h.n
    out = BiPolynomial.zero(n)
    for j in range(n):
        hz = h.dz(j)
        hzb = h.dzbar(j)
        out = out + 2j * (hz * g.dzbar(j)) - 2j * (hzb * g.dz(j))
        zj = BiPolynomial.monomial(n, [1 if k == j else 0 for k in range(n)])
        zbj = BiPolynomial.monomial(n, [0] * n, [1 if k == j else 0 for k in range(n)])
        out = out + 1j * big_n * ((zbj * hzb) * g) - 1j * big_n * ((zj * hz) * g)
    return out


def _bargmann_reference(h, f, big_n):
    # flat prequantum generator, written out in BiPolynomial ops
    n = h.n
    out = (1j * big_n) * (h * f)
    for j in range(n):
        a = 1j * h.dzbar(j)
        abar = -1j * h.dz(j)
        zbj = BiPolynomial.monomial(n, [0] * n, [1 if k == j else 0 for k in range(n)])
        out = out + a * (f.dz(j) - big_n * (zbj * f)) + abar * f.dzbar(j)
    return out


def _random_quadratic(n, rng):
    quad = [(a, b) for a in itertools.product(range(3), repeat=n)
            for b in itertools.product(range(3), repeat=n) if sum(a) + sum(b) == 2]
    return BiPolynomial(n, {key: complex(*rng.standard_normal(2)) for key in quad})


def _norm_constant(tr, alpha):
    # sqrt(N^|alpha| / alpha!) normalizing z^alpha, for alpha in the truncation
    return tr._norms[tr.index(alpha)]


def _projected_columns(op, tr):
    # project(op(z^alpha)) in the e_alpha basis, for columns of degree <= D - 2
    k = tr.dim_up_to(tr.D - 2)
    mat = np.zeros((tr.dim, k), dtype=complex)
    for i, alpha in enumerate(tr.basis()[:k]):
        image = project(apply(op, BiPolynomial.monomial(tr.n, alpha)), tr.N)
        for (beta, _), c in image.terms.items():
            mat[tr.index(beta), i] = c * _norm_constant(tr, alpha) / _norm_constant(tr, beta)
    return mat


def _projected_matrix(op, tr):
    k = tr.dim_up_to(tr.D - 2)
    return _projected_columns(op, tr)[:k]


def _pair_monomial(n, i, j):
    alpha = [0] * n
    alpha[i] += 1
    alpha[j] += 1
    return tuple(alpha)


def test_bipolynomial_algebra():
    z = BiPolynomial.monomial(1, (1,))
    zbar = BiPolynomial.monomial(1, (0,), (1,))
    w = z * zbar
    assert w.value(np.array([2.0 + 1j])) == pytest.approx(5.0)
    assert (z + z).value(np.array([1.5])) == pytest.approx(3.0)
    assert z.conj().value(np.array([1j])) == pytest.approx(-1j)
    assert z.dz(0).value(np.array([7.0])) == pytest.approx(1.0)
    assert w.dzbar(0).value(np.array([3.0])) == pytest.approx(3.0)


def test_projection_rational_oracles():
    # projecting zbar z divides by N; zbar^2 z^2 picks up 2/N^2
    for big_n in (1, 4, 10):
        f = BiPolynomial.monomial(1, (1,), (1,))
        p = project(f, big_n)
        assert p.value(np.array([0.0])) == pytest.approx(1.0 / big_n, abs=1e-14)
        f2 = BiPolynomial.monomial(1, (2,), (2,))
        p2 = project(f2, big_n)
        assert p2.value(np.array([0.0])) == pytest.approx(2.0 / big_n**2, abs=1e-14)


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
            f = BiPolynomial.monomial(n, alpha, beta)
            lhs = project(f, big_n)
            g = BiPolynomial.monomial(n, alpha)
            for j, b in enumerate(beta):
                for _ in range(b):
                    g = g.dz(j)
            scale = float(big_n) ** (-sum(beta))
            for pt in pts:
                worst = max(worst, abs(lhs.value(pt) - scale * g.value(pt)))
    assert worst < 1e-12


def test_truncation_basis_and_dims():
    tr = FockTruncation(2, 4, 3)
    # monomials of total degree <= 3 in 2 variables: 1 + 2 + 3 + 4 = 10
    assert tr.dim == 10
    assert tr.dim_up_to(0) == 1
    assert tr.dim_up_to(1) == 3
    assert len(tr.basis()) == 10
    assert tr.index((0, 0)) == 0
    assert tr.dim_up_to(-1) == 0 and tr.dim_up_to(2) == 6 and tr.dim_up_to(7) == 10
    with pytest.raises(ValueError):
        tr.index((4, 0))
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
    assert tr.dim == 10 and tr.index((1, 0)) == 2


def test_scalar_fit_reports_off_identity_part():
    tr = FockTruncation(1, 4, 6)
    mat = np.zeros((7, 7), dtype=complex)
    mat[:5, :5] = 2j * np.eye(5)
    op = FockOperator(mat, tr, 4)
    assert op.scalar_fit() == (2j, 0.0)
    mat[6, 1] = 3.0  # a row outside the square block still counts
    scalar, deviation = op.scalar_fit()
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
    got = flat_curvature_operator(h1, h2, tr)

    def lie(h, f):
        return bargmann_generator(h, f, big_n)

    worst = 0.0
    for i, alpha in enumerate(tr.basis()[: tr.dim_up_to(D - 4)]):
        f = BiPolynomial.monomial(n, alpha)
        p1, p2 = project(lie(h1, f), big_n), project(lie(h2, f), big_n)
        ref = project(lie(h2, lie(h1, f)) - lie(h1, lie(h2, f)), big_n) - (
            project(lie(h2, p1), big_n) - project(lie(h1, p2), big_n)
        )
        for (beta, _), c in ref.terms.items():
            expect = c * _norm_constant(tr, alpha) / _norm_constant(tr, beta)
            worst = max(worst, abs(got.matrix[tr.index(beta), i] - expect))
        ref_rows = {tr.index(beta) for (beta, _) in ref.terms}
        rest = [r for r in range(tr.dim) if r not in ref_rows]
        worst = max(worst, float(np.max(np.abs(got.matrix[rest, i]), initial=0.0)))
    assert worst < 1e-12 * max(1.0, float(np.max(np.abs(got.matrix))))


def test_lie_matrix_rotation_is_diagonal():
    # H = |z|^2 generates rotation; its operator is diagonal on monomials
    tr = FockTruncation(1, 5, 8)
    h = BiPolynomial.monomial(1, (1,), (1,))
    mat = _projected_matrix(fock._lie_operator(h, tr.N), tr)
    off = mat - np.diag(np.diag(mat))
    assert np.max(np.abs(off)) < 1e-13


def test_curvature_z2_zbar2_oracle():
    tr = FockTruncation(1, 4, 12)
    z2 = BiPolynomial.monomial(1, (2,))
    zb2 = BiPolynomial.monomial(1, (0,), (2,))
    mat = curvature_operator(z2, zb2, tr).restrict()
    assert np.max(np.abs(mat - 8.0 * np.eye(mat.shape[0]))) < 1e-10
    # antisymmetry in the two arguments
    mat2 = curvature_operator(zb2, z2, tr).restrict()
    assert np.max(np.abs(mat + mat2)) < 1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_curvature_mixed_pair_identity(n):
    # curv(z_m z_l, zbar_r zbar_s) = 4 (d_mr d_ls + d_ms d_lr) Id
    tr = FockTruncation(n, 4, 10)
    idx = list(itertools.combinations_with_replacement(range(n), 2))
    for (m, l) in idx:
        for (r, s) in idx:
            zz = BiPolynomial.monomial(n, _pair_monomial(n, m, l))
            bb = BiPolynomial.monomial(n, (0,) * n, _pair_monomial(n, r, s))
            mat = curvature_operator(zz, bb, tr).restrict()
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
            mat = curvature_operator(hp, hm, tr).restrict()
            assert np.max(np.abs(mat - (-8.0j) * delta * np.eye(mat.shape[0]))) < 1e-10
            matf = flat_curvature_operator(hp, hm, tr).restrict()
            assert np.max(np.abs(matf - (-2.0j) * delta * np.eye(matf.shape[0]))) < 1e-10


def test_curvature_same_sector_vanishes():
    tr = FockTruncation(1, 4, 10)
    hp = hamiltonian_bipoly(p_plus_basis(1)[0])
    mat = curvature_operator(hp, hp, tr).restrict()
    assert np.max(np.abs(mat)) < 1e-12


def test_scalar_ratio_constant_over_random_pairs():
    # the two curvature constructions agree up to the fixed factor -i/2
    tr = FockTruncation(1, 4, 12)
    rng = np.random.default_rng(2024)
    ratios = []
    for _ in range(20):
        cp = rng.standard_normal(2)
        cm = rng.standard_normal(2)
        from quantcurv.symplectic import QuadraticHamiltonian, omega_pairing

        x1 = cp[0] * p_plus_basis(1)[0].generator + cm[0] * p_minus_basis(1)[0].generator
        x2 = cp[1] * p_plus_basis(1)[0].generator + cm[1] * p_minus_basis(1)[0].generator
        if abs(omega_pairing(x1, x2)) < 1e-6:
            continue
        rec = verify_scalar_curvature(
            QuadraticHamiltonian(x1), QuadraticHamiltonian(x2), tr
        )
        assert rec["deviation"] <= 1e-8
        ratios.append(rec["ratio"])
    ratios = np.array(ratios)
    assert len(ratios) >= 15
    assert np.max(np.abs(ratios - (-0.5j))) < 1e-6


def test_bargmann_generator_monomial_action():
    # G for H = |z|^2 multiplies z^k by ik (rotation with integer speeds)
    big_n = 5
    h = BiPolynomial.monomial(1, (1,), (1,))
    for k in range(4):
        f = BiPolynomial.monomial(1, (k,))
        g = bargmann_generator(h, f, big_n)
        pts = np.array([[0.7 + 0.2j], [1.1 - 0.4j]])
        for pt in pts:
            assert g.value(pt) == pytest.approx(1j * k * f.value(pt), abs=1e-12)


def test_lie_derivative_respects_degree_bands():
    # quadratic Hamiltonians move degree by at most 2
    tr = FockTruncation(1, 4, 8)
    hp = hamiltonian_bipoly(p_plus_basis(1)[0])
    mat = _projected_matrix(fock._lie_operator(hp, tr.N), tr)
    block = tr.basis()[: mat.shape[0]]
    for col, alpha in enumerate(block):
        for row, beta in enumerate(block):
            if abs(sum(beta) - sum(alpha)) > 2 and abs(mat[row, col]) > 1e-13:
                raise AssertionError(
                    f"entry ({beta}, {alpha}) = {mat[row, col]} outside degree band"
                )


def test_degree_overflow_guard():
    tr = FockTruncation(1, 4, 3)
    z2 = BiPolynomial.monomial(1, (2,))
    zb2 = BiPolynomial.monomial(1, (0,), (2,))
    with pytest.raises(DegreeOverflowError):
        curvature_operator(z2, zb2, tr).restrict(3)


def test_lie_derivative_linear():
    lie = fock._lie_operator(hamiltonian_bipoly(p_plus_basis(1)[0]), 4)
    f = BiPolynomial.monomial(1, (1,))
    g = BiPolynomial.monomial(1, (2,))
    lhs = apply(lie, f + g)
    rhs = apply(lie, f) + apply(lie, g)
    pts = np.array([[0.3 + 0.1j], [1.2 - 0.7j]])
    for pt in pts:
        assert lhs.value(pt) == pytest.approx(rhs.value(pt), abs=1e-12)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("big_n", [1, 4, 6])
def test_first_order_operators_match_literal_formula(n, big_n):
    # one-pass application against the BiPolynomial-op formulas, on inputs
    # with zbar terms so that every d/dzbar entry contributes
    rng = np.random.default_rng(100 * n + big_n)
    degs = [a for a in itertools.product(range(4), repeat=n) if sum(a) <= 3]
    for _ in range(4):
        h = _random_quadratic(n, rng)
        keys = [(a, b) for a in degs for b in degs if rng.random() < 0.5]
        g = BiPolynomial(n, {key: complex(*rng.standard_normal(2)) for key in keys})
        for got, ref in (
            (apply(fock._lie_operator(h, big_n), g), _lie_state_reference(h, g, big_n)),
            (bargmann_generator(h, g, big_n), _bargmann_reference(h, g, big_n)),
        ):
            scale = max(abs(c) for c in ref.terms.values())
            diff = max(
                abs(got.terms.get(key, 0.0) - ref.terms.get(key, 0.0))
                for key in set(got.terms) | set(ref.terms)
            )
            assert diff <= 1e-14 * scale


def test_curvature_operator_products_independent_of_degree(monkeypatch):
    # the operators are built once per Hamiltonian, so the BiPolynomial
    # products a curvature matrix needs do not grow with its columns
    calls = []
    mul = BiPolynomial.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(BiPolynomial, "__mul__", counting_mul)
    h1 = hamiltonian_bipoly(p_plus_basis(2)[0])
    h2 = hamiltonian_bipoly(p_minus_basis(2)[1])
    counts = []
    for D in (8, 10):
        calls.clear()
        curvature_operator(h1, h2, FockTruncation(2, 4, D))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def _max_coeff_gap(got, ref):
    keys = set(got.terms) | set(ref.terms)
    return max((abs(got.terms.get(k, 0.0) - ref.terms.get(k, 0.0)) for k in keys), default=0.0)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("n", [1, 2])
def test_bracket_matches_symbolic_composition(n, spec):
    # (M, A) applied to every basis monomial against D2(D1 f) - D1(D2 f),
    # composed symbolically; complex random quadratics, so b_j != conj(a_j)
    big_n = 3
    rng = np.random.default_rng(40 + n)
    tr = FockTruncation(n, big_n, 6)
    for _ in range(3):
        d1, d2 = (spec(_random_quadratic(n, rng), big_n) for _ in range(2))
        big_m, big_a = fock._bracket(d1, d2)
        for alpha in tr.basis():
            f = BiPolynomial.monomial(n, alpha)
            got = big_m * f
            for j in range(n):
                got = got + big_a[j] * f.dz(j)
            ref = apply(d2, apply(d1, f)) - apply(d1, apply(d2, f))
            scale = max((abs(c) for c in ref.terms.values()), default=1.0)
            assert _max_coeff_gap(got, ref) <= 1e-12 * scale


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("n, D", [(1, 10), (2, 8)])
def test_operator_matrix_matches_projected_images(n, D, spec):
    # closed-form columns against the projected symbolic images, all rows
    rng = np.random.default_rng(60 + n)
    tr = FockTruncation(n, 4, D)
    k = tr.dim_up_to(D - 2)
    for _ in range(3):
        op = spec(_random_quadratic(n, rng), tr.N)
        ref = _projected_columns(op, tr)
        got = tr.operator_matrix(op.m, op.a, k)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("build", [curvature_operator, flat_curvature_operator])
def test_degree_overflow_for_images_leaving_the_truncation(build):
    # z^3 raises degree by 3, so the degree-6 column of D = 8 lands at 9
    z3 = BiPolynomial.monomial(1, (3,))
    zb2 = BiPolynomial.monomial(1, (0,), (2,))
    for h1, h2 in ((z3, zb2), (zb2, z3)):
        with pytest.raises(DegreeOverflowError, match="output degree 9"):
            build(h1, h2, FockTruncation(1, 4, 8))
    with pytest.raises(DegreeOverflowError):
        build(zb2, zb2, FockTruncation(2, 4, 3))


def test_curvature_operator_constructions_independent_of_degree(monkeypatch):
    # the images are closed form, so no BiPolynomial is built per column
    calls = []
    init = BiPolynomial.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    h1 = hamiltonian_bipoly(p_plus_basis(2)[0])
    h2 = hamiltonian_bipoly(p_minus_basis(2)[1])
    monkeypatch.setattr(BiPolynomial, "__init__", counting_init)
    counts = []
    for D in (8, 10):
        calls.clear()
        curvature_operator(h1, h2, FockTruncation(2, 4, D))
        counts.append(len(calls))
    assert counts[0] == counts[1]
