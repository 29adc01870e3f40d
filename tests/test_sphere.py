import math

import numpy as np
import pytest

from quantcurv.experiments import ConfigError, validate_config
from quantcurv.linalg import anti_hermiticity_defect, hermiticity_defect, hs_norm
from quantcurv.sphere import (
    EXACT_LEVEL_MAX,
    GRID_LEVEL_MAX,
    ChartFunction,
    SectionBasis,
    SectionSpace,
    SphereGrid,
    build_projector,
    chi_field,
    compress_generator,
    curvature_calibration,
    curvature_commutator,
    curvature_fd,
    generator_apply,
    hamiltonian_from_chart,
    harmonic_imag,
    harmonic_real,
    op_full,
    phase_average,
    rotation_x,
    rotation_y,
    rotation_z,
    tangent_structure,
    tangent_structure_fd,
    symbol_decay_experiment,
    zonal_harmonic,
)


@pytest.fixture(scope="module")
def grid():
    return SphereGrid.for_level(8)


@pytest.fixture(scope="module")
def space(grid):
    return SectionSpace(8, grid)


def test_grid_mass_is_pi(grid):
    # the chart measure dx dy / (1 + |z|^2)^2 integrates to pi
    assert grid.weights.sum() == pytest.approx(np.pi, rel=1e-13)


def test_grid_polynomial_exactness(grid):
    # |z|^2 / (1+|z|^2)^2 integrates to pi/6 in this measure:
    # the integrand equals w(1-w)^2 d(chart mass) with w = |z|^2/(1+|z|^2)
    vals = np.abs(grid.points) ** 2 / (1.0 + np.abs(grid.points) ** 2) ** 2
    assert (grid.weights * vals).sum() == pytest.approx(np.pi / 6.0, rel=1e-12)


def test_grid_too_coarse_rejected():
    coarse = SphereGrid.build(6, 10)
    with pytest.raises(ValueError):
        SectionSpace(8, coarse)


@pytest.mark.parametrize("big_n", [8, 16])
def test_monomial_gram_closed_form(big_n):
    # <z^k, z^j> with weight (1+|z|^2)^{-N} is diagonal with
    # pi k! (N-k)! / (N+1)!
    grid = SphereGrid.for_level(big_n)
    z = grid.points
    w2 = np.abs(z) ** 2
    weight = grid.weights * (1.0 + w2) ** (-big_n)
    powers = np.stack([z**k for k in range(big_n + 1)], axis=1)
    gram = (powers.conj() * weight[:, None]).T @ powers
    expect = np.diag(
        [
            np.pi
            * math.factorial(k)
            * math.factorial(big_n - k)
            / math.factorial(big_n + 1)
            for k in range(big_n + 1)
        ]
    )
    assert np.max(np.abs(gram - expect)) < 1e-10 * expect.max()


def test_section_space_frame_orthonormal(space):
    frame = getattr(space, "frame")
    gram = frame.conj().T @ frame
    assert np.max(np.abs(gram - np.eye(space.dim))) < 1e-12


def test_projector_properties(space):
    p = build_projector(8, space.grid).dense()
    assert hermiticity_defect(p) < 1e-12
    assert np.max(np.abs(p @ p - p)) < 1e-12
    assert np.trace(p).real == pytest.approx(9.0, abs=1e-10)


def test_toeplitz_identity_is_identity(space):
    one = ChartFunction.monomial(0, 0)
    t = space.toeplitz(one)
    assert np.max(np.abs(t - np.eye(space.dim))) < 1e-13


def test_projection_zbar_rational_oracle(space):
    # projecting zbar z^k onto the holomorphic sections gives
    # k/(N-k+1) z^{k-1}; check the coefficients against the normalized frame
    big_n = 8
    norms = getattr(space, "norms")
    for k in (1, 3, 5, big_n):
        c = space.coeffs(ChartFunction.monomial(k, 1))
        expect = np.zeros(big_n + 1)
        expect[k - 1] = k / (big_n - k + 1) * norms[k - 1]
        assert np.max(np.abs(c - expect)) < 1e-12


def test_toeplitz_diagonal_rational_oracle(space):
    # the symbol |z|^2/(1+|z|^2) compresses to the diagonal (k+1)/(N+2)
    big_n = 8
    t = space.toeplitz(ChartFunction.monomial(1, 1, denom=1))
    expect = np.diag([(k + 1.0) / (big_n + 2.0) for k in range(big_n + 1)])
    assert np.max(np.abs(t - expect)) < 1e-12


def test_hamiltonian_from_chart_validates():
    # a complex-valued symbol is rejected
    bad = ChartFunction.monomial(1, 0)
    with pytest.raises(ValueError):
        hamiltonian_from_chart("bad", bad)
    # an unbounded symbol is rejected
    worse = ChartFunction.monomial(1, 1)
    with pytest.raises(ValueError):
        hamiltonian_from_chart("worse", worse)


def test_chart_function_bounded_at_infinity():
    assert ChartFunction.monomial(1, 1, denom=1).bounded_at_infinity()
    assert ChartFunction.monomial(2, 0, denom=1).bounded_at_infinity()
    assert not ChartFunction.monomial(3, 0, denom=1).bounded_at_infinity()
    assert not ChartFunction.monomial(1, 0).bounded_at_infinity()


def test_rotation_generator_is_diagonal(space):
    g = compress_generator(rotation_z(), space)
    expect = np.diag(1j * np.arange(9, dtype=float))
    assert np.max(np.abs(g - expect)) < 1e-12


def test_generator_apply_rotation_monomials():
    # the rotation field scales z^k by ik pointwise, exactly
    ham = rotation_z()
    pts = np.array([0.3 + 0.2j, 1.5 - 1.0j, -2.0 + 0.1j])
    for k in range(4):
        f = ChartFunction.monomial(k, 0)
        g = generator_apply(ham, f, 8)
        assert np.max(np.abs(g.eval(pts) - 1j * k * f.eval(pts))) < 1e-13


@pytest.mark.parametrize("ham_f", [rotation_z, rotation_x, harmonic_real, zonal_harmonic])
def test_compressed_generator_anti_hermitian(ham_f, space):
    g = compress_generator(ham_f(), space)
    assert anti_hermiticity_defect(g) < 1e-12
    h = op_full(ham_f(), 8, space.grid)
    assert hermiticity_defect(h) < 1e-12


def test_rotation_hamiltonians_have_unit_speed():
    # rotation_z eigenvalues on sections are i*0 .. i*N; rotation_x is
    # conjugate to it, so shares the spectrum shifted symmetrically
    grid = SphereGrid.for_level(6)
    space = SectionSpace(6, grid)
    gz = compress_generator(rotation_z(), space)
    gx = compress_generator(rotation_x(), space)
    ez = np.sort(np.linalg.eigvals(gz).imag)
    ex = np.sort(np.linalg.eigvals(gx).imag)
    assert np.max(np.abs(ez - np.arange(7))) < 1e-10
    assert np.max(np.abs(ex - (np.arange(7) - 3.0))) < 1e-8


def test_tangent_structure_rotations_vanish():
    pts = np.array([0.4 + 0.3j, -1.2 + 0.8j, 0.05 - 2.0j])
    for ham_f in (rotation_z, rotation_x, rotation_y):
        a = tangent_structure(ham_f(), pts)
        assert np.max(np.abs(a)) < 1e-12


def test_tangent_structure_anticommutes_with_j():
    pts = np.array([0.4 + 0.3j, -1.2 + 0.8j, 1.1 + 0.05j])
    j0 = np.array([[0.0, -1.0], [1.0, 0.0]])
    for ham_f in (harmonic_real, harmonic_imag, zonal_harmonic):
        a = tangent_structure(ham_f(), pts)
        for k in range(len(pts)):
            assert np.max(np.abs(j0 @ a[k] + a[k] @ j0)) < 1e-12
            assert np.max(np.abs(a[k] - a[k].T)) < 1e-12


def test_tangent_structure_matches_finite_difference():
    pts = np.array([0.4 + 0.3j, -0.7 + 1.1j])
    for ham_f in (harmonic_real, zonal_harmonic):
        exact = tangent_structure(ham_f(), pts)
        approx = tangent_structure_fd(ham_f(), pts)
        assert np.max(np.abs(exact - approx)) < 1e-5


def test_chi_field_antisymmetric_and_matches_grid():
    h1, h2 = harmonic_real(), zonal_harmonic()
    pts = np.array([0.5 + 0.1j, -0.3 + 0.9j, 2.0 - 1.5j])
    f12 = chi_field(h1, h2)
    f21 = chi_field(h2, h1)
    assert np.max(np.abs(f12.eval(pts) + f21.eval(pts))) < 1e-12
    # pointwise values agree with the tangent/trace assembly
    j0 = np.array([[0.0, -1.0], [1.0, 0.0]])
    a1 = tangent_structure(h1, pts)
    a2 = tangent_structure(h2, pts)
    direct = np.array(
        [np.trace(a1[k] @ j0 @ a2[k]).real for k in range(len(pts))]
    )
    assert np.max(np.abs(f12.eval(pts).real - direct)) < 1e-10
    # grid form returns sampled values
    grid = SphereGrid.for_level(4)
    vals = chi_field(h1, h2, grid)
    assert vals.shape == grid.points.shape
    assert np.max(np.abs(vals - f12.eval(grid.points).real)) < 1e-12


def test_chi_field_same_hamiltonian_vanishes():
    pts = np.array([0.5 + 0.1j, -0.3 + 0.9j])
    f = chi_field(harmonic_real(), harmonic_real())
    assert np.max(np.abs(f.eval(pts))) < 1e-14


def test_curvature_same_hamiltonian_vanishes(space):
    y = curvature_commutator(harmonic_real(), harmonic_real(), space)
    assert hs_norm(y) < 1e-12


def test_curvature_rotation_pair_vanishes(space):
    # rotations are isometries of the round metric: no curvature between them
    y = curvature_commutator(rotation_z(), rotation_x(), space)
    assert hs_norm(y) < 1e-10


def test_curvature_antisymmetric_and_anti_hermitian(space):
    y12 = curvature_commutator(harmonic_real(), zonal_harmonic(), space)
    y21 = curvature_commutator(zonal_harmonic(), harmonic_real(), space)
    assert np.max(np.abs(y12 + y21)) < 1e-10
    assert anti_hermiticity_defect(y12) < 1e-6 * max(1.0, hs_norm(y12))


def test_curvature_fd_matches_commutator(space):
    y = curvature_commutator(harmonic_real(), zonal_harmonic(), space)
    yfd = curvature_fd(harmonic_real(), zonal_harmonic(), space, h=1e-3)
    assert hs_norm(yfd - y) / hs_norm(y) < 1e-3
    yfd2 = curvature_fd(harmonic_real(), zonal_harmonic(), space, h=1e-3, richardson=True)
    assert hs_norm(yfd2 - y) / hs_norm(y) < 1e-6
    # halving h divides the h^2 error by about 4
    e1 = hs_norm(curvature_fd(harmonic_real(), zonal_harmonic(), space, h=2e-3) - y)
    e2 = hs_norm(curvature_fd(harmonic_real(), zonal_harmonic(), space, h=1e-3) - y)
    assert e1 / e2 > 3.5


def test_curvature_fd_same_hamiltonian_exact_zero(space):
    yfd = curvature_fd(harmonic_real(), harmonic_real(), space, h=1e-3)
    assert hs_norm(yfd) == 0.0


def test_curvature_calibration_constant():
    assert curvature_calibration() == pytest.approx(-0.125j, abs=1e-12)


def test_symbol_decay_experiment_rows():
    rows = symbol_decay_experiment(harmonic_real(), zonal_harmonic(), [8, 16])
    assert [r["N"] for r in rows] == [8, 16]
    assert rows[0]["dim"] == 9 and rows[1]["dim"] == 17
    # spectral distance to the classical symbol shrinks as N grows
    assert rows[1]["eps"] < rows[0]["eps"]
    for r in rows:
        assert r["eps"] > 0
        assert "trace_lhs" in r and "trace_rhs" in r


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("big_n", [8, 16, 64])
def test_exact_coeffs_match_grid_on_generator_columns(big_n):
    # the closed-form pairing against the independent quadrature
    # frame^H @ sample(f), on every column G z^k of two generators
    space = SectionSpace(big_n, SphereGrid.for_level(big_n))
    for ham in (harmonic_real(), zonal_harmonic()):
        for k in range(big_n + 1):
            gk = generator_apply(ham, ChartFunction.monomial(k), big_n)
            grid = space.frame.conj().T @ space.sample(gk)
            assert _rel(space.coeffs(gk), grid) <= 1e-11, (ham.name, k)


@pytest.mark.parametrize("big_n", [8, 16, 64])
def test_exact_toeplitz_of_chi_matches_grid(big_n):
    space = SectionSpace(big_n, SphereGrid.for_level(big_n))
    chi = chi_field(harmonic_real(), zonal_harmonic())
    grid = space.compress_mult(chi.eval(space.grid.points).real)
    assert _rel(space.toeplitz(chi), grid) <= 1e-11


def test_symbol_decay_beyond_grid_levels():
    # closed-form eps past the levels the quadrature grid resolves
    rows = symbol_decay_experiment(harmonic_real(), zonal_harmonic(), [64, 80, 96, 128])
    expect = [0.9961417429, 0.6678276926, 0.4784119188, 0.2798117438]
    for r, e in zip(rows, expect):
        assert r["eps"] == pytest.approx(e, rel=1e-8)
        assert r["trace_lhs"] == 0.0 and r["trace_rhs"] == 0.0


def test_symbol_decay_needs_no_grid(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("grid path used")

    monkeypatch.setattr(ChartFunction, "eval", forbidden)
    monkeypatch.setattr(SphereGrid, "build", forbidden)
    monkeypatch.setattr(SectionSpace, "__init__", forbidden)
    rows = symbol_decay_experiment(harmonic_real(), zonal_harmonic(), [8, 16])
    assert rows[1]["eps"] < rows[0]["eps"]


def test_exact_oracles_at_largest_level():
    # rational closed forms at EXACT_LEVEL_MAX, where ||z^k||^2 underflows
    # a double and only the log-space entries stay finite
    big_n = EXACT_LEVEL_MAX
    basis = SectionBasis(big_n)
    k = np.arange(big_n + 1)
    t = basis.toeplitz(ChartFunction.monomial(1, 1, denom=1))
    assert _rel(t, np.diag((k + 1.0) / (big_n + 2.0))) < 1e-11
    # zbar lowers the degree: <e_{k-1}, zbar e_k> = sqrt(k / (N-k+1))
    t = basis.toeplitz(ChartFunction.monomial(0, 1))
    expect = np.sqrt(k[1:] / (big_n - k[1:] + 1.0))
    assert np.max(np.abs(np.diag(t, 1) / expect - 1.0)) < 1e-11
    assert np.count_nonzero(t - np.diag(np.diag(t, 1), 1)) == 0
    g = compress_generator(rotation_z(), basis)
    assert _rel(g, np.diag(1j * k)) < 1e-11


def test_phase_average_oracles():
    # |z|^2/(1+|z|^2)^2 averages to 1/6; the zonal harmonic to 0
    assert phase_average(ChartFunction.monomial(1, 1, denom=2)) == pytest.approx(1 / 6)
    assert phase_average(zonal_harmonic().h) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        phase_average(ChartFunction.monomial(1, 1))


def test_grid_frame_gram_checked_at_construction():
    SectionSpace(GRID_LEVEL_MAX, SphereGrid.for_level(GRID_LEVEL_MAX))
    for big_n in (GRID_LEVEL_MAX + 1, 80):
        with pytest.raises(ValueError, match=f"N={big_n}"):
            SectionSpace(big_n, SphereGrid.for_level(big_n))


def _entry(experiment, parameters):
    return {
        "seed": 1,
        "experiments": [
            {"experiment": experiment, "parameters": parameters, "output_path": "x.csv"}
        ],
    }


def test_config_rejects_levels_past_verified_range():
    ok = {"N_list": [8, EXACT_LEVEL_MAX]}
    validate_config(_entry("sphere-convergence", ok))
    with pytest.raises(ConfigError, match="N_list"):
        validate_config(_entry("sphere-convergence", {"N_list": [8, EXACT_LEVEL_MAX + 1]}))
    transport = {"dt": 1e-3, "t_end": 0.1, "cases": [{"hamiltonian": "rotation_z", "tol": 1e-6}]}
    validate_config(_entry("schrodinger-intertwine", dict(transport, N=GRID_LEVEL_MAX)))
    with pytest.raises(ConfigError, match="schrodinger N"):
        validate_config(_entry("schrodinger-intertwine", dict(transport, N=GRID_LEVEL_MAX + 1)))
