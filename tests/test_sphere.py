import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from quantcurv import sphere
from quantcurv import toeplitz as engine
from quantcurv.experiments import HAMILTONIAN_LIBRARY, ConfigError, run_experiment, validate_config
from quantcurv.linalg import OdeStepper
from quantcurv.sphere import (
    EXACT_LEVEL_MAX,
    GRID_LEVEL_MAX,
    ChartFunction,
    SectionBasis,
    SectionSpace,
    SphereGrid,
    chi_field,
    compress_generator,
    curvature_calibration,
    curvature_commutator,
    curvature_fd,
    hamiltonian_from_chart,
    harmonic_imag,
    harmonic_real,
    phase_average,
    pullback_frame,
    rotation_x,
    rotation_y,
    rotation_z,
    symbol_decay_experiment,
    zonal_harmonic,
)
from curvature_oracle import compressed_curvature
from sphere_oracle import eval_batch_reference, generator_apply


_J0 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _jacobian(ham, z):
    """Real 2x2 Jacobian of the flow field zdot = a(z) at each point, shape (..., 2, 2)."""
    az = ham.a.dz(0).eval(z)
    azb = ham.a.dzbar(0).eval(z)
    dxa = az + azb
    dya = 1j * (az - azb)
    out = np.empty(z.shape + (2, 2))
    out[..., 0, 0] = dxa.real
    out[..., 0, 1] = dya.real
    out[..., 1, 0] = dxa.imag
    out[..., 1, 1] = dya.imag
    return out


def _tangent_structure(ham, points):
    """Derivative [J0, Dxi] of the pulled-back complex structure at t = 0."""
    d = _jacobian(ham, points)
    return _J0 @ d - d @ _J0


def _tangent_structure_fd(ham, points, h=1e-3, n_steps=8):
    """Same tangent field by central differences of the flow differential.

    Integrates the variational equation Mdot = Dxi(psi_tau) M alongside the
    flow to +/- h and differences (dpsi)^{-1} J0 (dpsi).
    """
    points = np.asarray(points, dtype=complex)

    def conjugated(tt):
        sign = 1.0 if tt >= 0 else -1.0

        def rhs(y):
            z = y[0]
            m = y[1:5].real.reshape(2, 2, -1)
            dm = np.einsum("nij,jkn->ikn", _jacobian(ham, z), m)
            return np.concatenate([(sign * ham.a.eval(z))[None, :], sign * dm.reshape(4, -1)])

        m0 = np.zeros((4, len(points)), dtype=complex)
        m0[0] = m0[3] = 1.0
        y0 = np.concatenate([points[None, :], m0])
        stepper, y = OdeStepper(dt=abs(tt) / n_steps), y0
        for _ in range(n_steps):
            y = stepper.step(rhs, y)
        m = y[1:5].real.reshape(2, 2, -1).transpose(2, 0, 1)
        return np.linalg.inv(m) @ _J0 @ m

    return (conjugated(h) - conjugated(-h)) / (2.0 * h)


def _chi_assembled(a1, a2):
    return np.array([np.trace(a1[k] @ _J0 @ a2[k]) for k in range(len(a1))])


@pytest.fixture(scope="module")
def grid():
    return SphereGrid.for_level(8)


@pytest.fixture(scope="module")
def space():
    return SectionSpace(8)


def test_grid_mass_is_pi(grid):
    # the chart measure dx dy / (1 + |z|^2)^2 integrates to pi
    assert grid.weights.sum() == pytest.approx(np.pi, rel=1e-13)


def test_grid_polynomial_exactness(grid):
    # |z|^2 / (1+|z|^2)^2 integrates to pi/6 in this measure:
    # the integrand equals w(1-w)^2 d(chart mass) with w = |z|^2/(1+|z|^2)
    vals = np.abs(grid.points) ** 2 / (1.0 + np.abs(grid.points) ** 2) ** 2
    assert (grid.weights * vals).sum() == pytest.approx(np.pi / 6.0, rel=1e-12)


def _product_rule(big_n):
    # the level's rule as it was written when callers passed the grid in:
    # 2N+16 Gauss-Legendre nodes in t = |z|^2/(1+|z|^2), 4N+8 uniform angles
    n_radial, n_angular = 2 * big_n + 16, 4 * big_n + 8
    x, wx = np.polynomial.legendre.leggauss(n_radial)
    t = 0.5 * (x + 1.0)
    r = np.sqrt(t / (1.0 - t))
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    points = np.outer(r, np.exp(1j * theta)).ravel()
    weights = np.outer(0.5 * (0.5 * wx), np.full(n_angular, 2.0 * np.pi / n_angular)).ravel()
    return points, weights


@pytest.mark.parametrize("big_n", [6, 16, GRID_LEVEL_MAX])
def test_section_space_builds_the_level_grid_to_the_bit(big_n):
    # SectionSpace(N) takes its grid from the level alone: the points and
    # half weights equal, bit for bit, those of the rule callers used to pass
    points, weights = _product_rule(big_n)
    space = SectionSpace(big_n)
    assert space.grid.points.size == (2 * big_n + 16) * (4 * big_n + 8)
    assert np.array_equal(space.grid.points, points)
    assert np.array_equal(space.grid.weights, weights)
    sqrtw = np.sqrt(weights * (1.0 + np.abs(points) ** 2) ** (-big_n))
    assert np.array_equal(space.sqrtw, sqrtw)


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
    frame = space.frame_at(space.grid.points, 1.0)
    gram = frame.conj().T @ frame
    assert np.max(np.abs(gram - np.eye(space.dim))) < 1e-12


def test_section_space_holds_no_frame_sized_array(space):
    # the grid frame is formed where it is used and dropped after the Gram check
    frame_size = space.dim * space.grid.points.size
    sizes = [v.size for v in vars(space).values() if isinstance(v, np.ndarray)]
    assert sizes and frame_size not in sizes


@pytest.mark.parametrize("big_n", [8, 16, GRID_LEVEL_MAX])
def test_section_space_frame_is_normalized_monomials(big_n):
    # reference: each column sqrtw z^k / ||z^k|| formed from its own power,
    # not by the recurrence of `frame_at`
    space = SectionSpace(big_n)
    z = space.grid.points
    ref = np.column_stack([space.sqrtw * z**k / space.norms[k] for k in range(big_n + 1)])
    assert np.max(np.abs(space.frame_at(z, 1.0) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_frame_at_writes_into_a_given_buffer(space):
    rng = np.random.default_rng(3)
    n = len(space.grid.points)
    z = space.grid.points * np.exp(1j * rng.uniform(-0.1, 0.1, n))
    c = np.exp(1j * rng.uniform(-1.0, 1.0, n))
    buf = np.empty((space.dim, n), dtype=complex)
    got = space.frame_at(z, c, out=buf)
    assert got.base is buf
    assert np.array_equal(got, space.frame_at(z, c))


@pytest.mark.parametrize("t", [0.1, -0.1])
def test_pullback_frame_of_rotation_is_a_phase(space, t):
    # the rotation flow maps z^k to e^{ikt} z^k, so V_t^{-1} e_k = e^{-ikt} e_k
    k = np.arange(space.dim)
    expect = space.frame_at(space.grid.points, 1.0) * np.exp(-1j * k * t)
    assert np.max(np.abs(pullback_frame(rotation_z(), space, t) - expect)) <= 1e-12


def test_pullback_frame_of_a_constant_is_a_phase():
    # h = 0.7 gives a = 0 and q = iNh, so V_t^{-1} e_k = e^(-iN 0.7 t) e_k:
    # the closed-form phase reads it to 1.7e-15, where RK4 on c erred by
    # 1.4e-8
    space = SectionSpace(16)
    ham = hamiltonian_from_chart("const", ChartFunction({(0, 0): 0.7}, 0))
    t = 0.1
    expect = space.frame_at(space.grid.points, 1.0) * np.exp(-1j * 16 * 0.7 * t)
    got = pullback_frame(ham, space, t)
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


def test_projector_properties(space):
    frame = space.frame_at(space.grid.points, 1.0)
    p = frame @ frame.conj().T
    assert np.max(np.abs(p - p.conj().T)) < 1e-12
    assert np.max(np.abs(p @ p - p)) < 1e-12
    assert np.trace(p).real == pytest.approx(9.0, abs=1e-10)


def test_toeplitz_identity_is_identity(space):
    one = ChartFunction.monomial(0, 0)
    t = space.toeplitz([one])[0]
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
    t = space.toeplitz([ChartFunction.monomial(1, 1, denom=1)])[0]
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
    assert np.max(np.abs(g + g.conj().T)) < 1e-12


def test_rotation_hamiltonians_have_unit_speed():
    # rotation_z eigenvalues on sections are i*0 .. i*N; rotation_x is
    # conjugate to it, so shares the spectrum shifted symmetrically
    space = SectionSpace(6)
    gz = compress_generator(rotation_z(), space)
    gx = compress_generator(rotation_x(), space)
    ez = np.sort(np.linalg.eigvals(gz).imag)
    ex = np.sort(np.linalg.eigvals(gx).imag)
    assert np.max(np.abs(ez - np.arange(7))) < 1e-10
    assert np.max(np.abs(ex - (np.arange(7) - 3.0))) < 1e-8


def test_tangent_structure_rotations_vanish():
    pts = np.array([0.4 + 0.3j, -1.2 + 0.8j, 0.05 - 2.0j])
    for ham_f in (rotation_z, rotation_x, rotation_y):
        a = _tangent_structure(ham_f(), pts)
        assert np.max(np.abs(a)) < 1e-12


def test_tangent_structure_anticommutes_with_j():
    pts = np.array([0.4 + 0.3j, -1.2 + 0.8j, 1.1 + 0.05j])
    j0 = np.array([[0.0, -1.0], [1.0, 0.0]])
    for ham_f in (harmonic_real, harmonic_imag, zonal_harmonic):
        a = _tangent_structure(ham_f(), pts)
        for k in range(len(pts)):
            assert np.max(np.abs(j0 @ a[k] + a[k] @ j0)) < 1e-12
            assert np.max(np.abs(a[k] - a[k].T)) < 1e-12


def test_tangent_structure_matches_finite_difference():
    pts = np.array([0.4 + 0.3j, -0.7 + 1.1j])
    for ham_f in (harmonic_real, zonal_harmonic):
        exact = _tangent_structure(ham_f(), pts)
        approx = _tangent_structure_fd(ham_f(), pts)
        assert np.max(np.abs(exact - approx)) < 1e-5


def test_chi_field_antisymmetric_and_matches_grid():
    h1, h2 = harmonic_real(), zonal_harmonic()
    pts = np.array([0.5 + 0.1j, -0.3 + 0.9j, 2.0 - 1.5j])
    f12 = chi_field(h1, h2)
    f21 = chi_field(h2, h1)
    assert np.max(np.abs(f12.eval(pts) + f21.eval(pts))) < 1e-12
    # sampled on a grid, chi is real, and antisymmetric there too
    grid = SphereGrid.for_level(4)
    vals = chi_field(h1, h2).eval(grid.points)
    assert vals.shape == grid.points.shape
    assert np.max(np.abs(vals.imag)) < 1e-12
    assert np.max(np.abs(vals + f21.eval(grid.points))) < 1e-12


@pytest.mark.parametrize("f1", [rotation_x, harmonic_real, harmonic_imag, zonal_harmonic])
@pytest.mark.parametrize("f2", [rotation_z, harmonic_real, harmonic_imag, zonal_harmonic])
def test_chi_field_matches_tangent_trace_assembly(f1, f2):
    # closed form 8 Im(b1 conj b2) against tr(A1 J0 A2) assembled from the
    # flow Jacobian and from the variational finite difference
    h1, h2 = f1(), f2()
    pts = np.array([0.5 + 0.1j, -0.3 + 0.9j, 0.7 - 0.4j])
    closed = chi_field(h1, h2).eval(pts)
    exact = _chi_assembled(_tangent_structure(h1, pts), _tangent_structure(h2, pts))
    approx = _chi_assembled(_tangent_structure_fd(h1, pts), _tangent_structure_fd(h2, pts))
    scale = max(1.0, np.max(np.abs(exact)))
    assert np.max(np.abs(closed - exact)) <= 1e-12 * scale
    assert np.max(np.abs(closed - approx)) <= 1e-5 * scale


def test_chi_field_same_hamiltonian_vanishes():
    pts = np.array([0.5 + 0.1j, -0.3 + 0.9j])
    f = chi_field(harmonic_real(), harmonic_real())
    assert np.max(np.abs(f.eval(pts))) < 1e-14


def test_curvature_same_hamiltonian_vanishes(space):
    y = curvature_commutator(harmonic_real(), harmonic_real(), space)
    assert np.linalg.norm(y) < 1e-12


def test_curvature_rotation_pair_vanishes(space):
    # rotations are isometries of the round metric: no curvature between them
    y = curvature_commutator(rotation_z(), rotation_x(), space)
    assert np.linalg.norm(y) < 1e-10


def test_curvature_antisymmetric_and_anti_hermitian(space):
    y12 = curvature_commutator(harmonic_real(), zonal_harmonic(), space)
    y21 = curvature_commutator(zonal_harmonic(), harmonic_real(), space)
    assert np.max(np.abs(y12 + y21)) < 1e-10
    assert np.max(np.abs(y12 + y12.conj().T)) < 1e-6 * max(1.0, np.linalg.norm(y12))


def _bracket_symbol(h1, h2):
    """p = -xi_{h1} h2, with [G2, G1] = G_p."""
    return sphere._bracket(h1.h, h2.h)


def _generator_symbol(f, N):
    """i (N f - Delta_1 f), the symbol of Pi G_f Pi."""
    return sphere._generator_symbol(f)(N)


def _literal_bracket(h1, h2, f, N):
    return generator_apply(h2, generator_apply(h1, f, N), N) - generator_apply(
        h1, generator_apply(h2, f, N), N
    )


@pytest.mark.parametrize("f1", list(HAMILTONIAN_LIBRARY.values()))
@pytest.mark.parametrize("f2", list(HAMILTONIAN_LIBRARY.values()))
def test_bracket_matches_double_application(f1, f2):
    # [G2, G1] = G_p with p = -xi_{h1} h2, at points against G2 (G1 z^k) -
    # G1 (G2 z^k) applied literally in the chart algebra; and the compressed
    # bracket i T_{N p - Delta_1 p} against the coefficients of those images.
    # The literal images round their N^2-sized coefficients, and pairing
    # amplifies that: measured 1.1e-15, 4.2e-13 and 1.2e-10 at N = 8, 64 and
    # 1024, so 1e-15 N^2 leaves a margin of 9x or more.
    h1, h2 = f1(), f2()
    p = _bracket_symbol(h1, h2)
    gp = hamiltonian_from_chart("p", p)
    pts = np.array([0.5 + 0.1j, -0.3 + 0.9j, 0.7 - 0.4j, 1.8 + 1.1j])
    for k in range(9):
        zk = ChartFunction.monomial(k)
        want = _literal_bracket(h1, h2, zk, 8).eval(pts)
        got = generator_apply(gp, zk, 8).eval(pts)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), k
    for N in (8, 64, 1024):
        basis = SectionBasis(N)
        norms = np.exp(basis.log_norms[0] + basis.log_norms[1])
        bracket = basis.toeplitz([_generator_symbol(p, N)])[0]
        scale = max(1.0, np.max(np.abs(bracket)))
        for k in sorted({0, 1, N - 1, N, *range(0, N + 1, N // 8)}):
            want = basis.coeffs(_literal_bracket(h1, h2, ChartFunction.monomial(k), N)) / norms[k]
            assert np.max(np.abs(bracket[:, k] - want)) <= 1e-15 * N**2 * scale, (N, k)


@pytest.mark.parametrize("big_n", [8, 64, 1024])
def test_operator_matrix_matches_coeffs_of_images(big_n):
    # column k of toeplitz([f]) is coeffs of f z^k over ||z^k||, for the
    # generator and bracket symbols and chi; and Tuynman's compressed
    # generator i T_{N h - Delta_1 h} against the literal G z^k
    basis = SectionBasis(big_n)
    norms = np.exp(basis.log_norms[0] + basis.log_norms[1])
    hams = [f() for f in HAMILTONIAN_LIBRARY.values()]
    cases = [_generator_symbol(h.h, big_n) for h in hams]
    cases.append(_generator_symbol(_bracket_symbol(harmonic_real(), zonal_harmonic()), big_n))
    cases.append(chi_field(harmonic_real(), zonal_harmonic()))
    for f in cases:
        want = np.column_stack(
            [basis.coeffs(f * ChartFunction.monomial(k)) / norms[k] for k in range(basis.dim)]
        )
        assert _rel(basis.toeplitz([f])[0], want) <= 1e-12
    for h in hams:
        want = np.column_stack(
            [
                basis.coeffs(generator_apply(h, ChartFunction.monomial(k), big_n)) / norms[k]
                for k in range(basis.dim)
            ]
        )
        assert _rel(compress_generator(h, basis), want) <= 1e-12, h.name


def test_curvature_builds_chart_functions_independent_of_level(monkeypatch):
    # the bracket is two chart functions whatever N, so the number of
    # ChartFunction constructions per curvature does not grow with N
    counts = []
    real_init = ChartFunction.__init__

    def counting(self, *args, **kwargs):
        counts[-1] += 1
        real_init(self, *args, **kwargs)

    h1, h2 = harmonic_real(), zonal_harmonic()
    monkeypatch.setattr(ChartFunction, "__init__", counting)
    for big_n in (8, 64):
        counts.append(0)
        curvature_commutator(h1, h2, SectionBasis(big_n))
    assert counts[0] == counts[1] > 0


def test_ladder_symbolic_work_independent_of_levels(monkeypatch):
    # the chart algebra of the pair is formed once per ladder, and each level
    # is one Toeplitz pass, however many levels the ladder has
    curvature_calibration()  # cached: its Fock products are not the ladder's
    counts = {}

    def counting(name, real):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(ChartFunction, "__mul__", counting("mul", ChartFunction.__mul__))
    monkeypatch.setattr(engine, "toeplitz", counting("pair", engine.toeplitz))
    products = []
    for n_list in ([8], [8, 16, 32, 64, 80]):
        counts.update(mul=0, pair=0)
        run_experiment("sphere-convergence", {"N_list": n_list}, np.random.default_rng(0))
        assert counts["pair"] == len(n_list)
        products.append(counts["mul"])
    assert products[0] == products[1] > 0


def test_curvature_batch_equals_pairs_built_alone():
    # one batch of two pairs sharing a HamiltonianField object, at two
    # levels: each Y is the same to the bit as the pair's own curvature
    h, g, r = harmonic_real(), zonal_harmonic(), rotation_z()
    pairs = [(h, g), (r, h)]
    levels = [8, 80]
    batch = engine.curvatures(
        [(h1.h, h2.h) for h1, h2 in pairs],
        map(SectionBasis, levels),
        sphere._generator_symbol,
        sphere._bracket,
    )
    for N, (curvs, extra) in zip(levels, batch):
        assert len(curvs) == len(pairs) and len(extra) == 0
        for y, (h1, h2) in zip(curvs, pairs):
            assert np.array_equal(y, curvature_commutator(h1, h2, SectionBasis(N)))


def test_curvature_of_one_object_twice_equals_two_copies():
    # a pair made of the same object twice gets one matrix for both sides,
    # and the same Y to the bit as two equal copies
    basis = SectionBasis(33)
    for f in HAMILTONIAN_LIBRARY.values():
        h = f()
        assert np.array_equal(
            curvature_commutator(h, h, basis), curvature_commutator(h, f(), basis)
        )


@pytest.mark.parametrize("hams", [["rotation_z", "rotation_z"], ["harmonic_real", "harmonic_real"]])
def test_ladder_of_a_repeated_hamiltonian_reads_zero(hams):
    # Y = T_chi = 0 exactly, so eps is 0 at every level and each ratio 0
    params = {"N_list": [8, 16, 32], "hamiltonians": hams}
    _columns, rows, ok = run_experiment("sphere-convergence", params, np.random.default_rng(0))
    assert ok
    assert [row[2] for row in rows] == [0.0, 0.0, 0.0]
    assert math.isnan(rows[0][3]) and [row[3] for row in rows[1:]] == [0.0, 0.0]


@pytest.mark.parametrize("big_n", [8, 80, 1024])
def test_batched_operator_matrix_equals_separate_builds(big_n):
    # one pairing pass over many symbols gives each matrix to the bit
    basis = SectionBasis(big_n)
    cases = [_generator_symbol(f().h, big_n) for f in HAMILTONIAN_LIBRARY.values()]
    cases.append(_generator_symbol(_bracket_symbol(harmonic_real(), zonal_harmonic()), big_n))
    cases.append(chi_field(harmonic_real(), zonal_harmonic()))
    stack = basis.toeplitz(cases)
    assert stack.shape == (len(cases), basis.dim, basis.dim)
    for got, f in zip(stack, cases):
        assert np.array_equal(got, basis.toeplitz([f])[0])


def test_symbol_decay_rows_match_generators_built_at_each_level():
    # symbols formed once per pair and scaled by N, against the compressed
    # generators of h1, h2 and p built from scratch at each N
    h1, h2 = harmonic_real(), zonal_harmonic()
    n_list = [8, 16, 32, 64, 80]
    c = curvature_calibration()
    chi = chi_field(h1, h2)
    for N, row in zip(n_list, symbol_decay_experiment(h1, h2, n_list)):
        basis = SectionBasis(N)
        gp = hamiltonian_from_chart("p", _bracket_symbol(h1, h2))
        b1, b2, bracket = (compress_generator(h, basis) for h in (h1, h2, gp))
        y = (bracket - (b2 @ b1 - b1 @ b2)) / c
        eps = float(np.linalg.norm(y - basis.toeplitz([chi])[0]) ** 2 / (N + 1))
        assert row["eps"] == pytest.approx(eps, rel=1e-13, abs=0), N
        assert abs(row["trace_lhs"] - np.trace(y).real / (N + 1)) <= 1e-13 * np.max(np.abs(y)), N


def test_curvature_fd_matches_commutator(space):
    y = curvature_commutator(harmonic_real(), zonal_harmonic(), space)
    yfd = curvature_fd(harmonic_real(), zonal_harmonic(), space, h=1e-3)
    assert np.linalg.norm(yfd - y) / np.linalg.norm(y) < 1e-3
    yfd2 = curvature_fd(harmonic_real(), zonal_harmonic(), space, h=1e-3, richardson=True)
    assert np.linalg.norm(yfd2 - y) / np.linalg.norm(y) < 1e-6
    # halving h divides the h^2 error by about 4
    e1 = np.linalg.norm(curvature_fd(harmonic_real(), zonal_harmonic(), space, h=2e-3) - y)
    e2 = np.linalg.norm(curvature_fd(harmonic_real(), zonal_harmonic(), space, h=1e-3) - y)
    assert e1 / e2 > 3.5


def test_curvature_fd_same_hamiltonian_exact_zero(space):
    yfd = curvature_fd(harmonic_real(), harmonic_real(), space, h=1e-3)
    assert np.linalg.norm(yfd) == 0.0


def test_curvature_fd_error_halves_as_h_squared_at_n32():
    # the pullback's integration error stays below the h^2 term: with too few
    # steps per h the ratio drifts from 4 (4.13 here with 4 steps)
    space = SectionSpace(32)
    y = curvature_commutator(harmonic_real(), zonal_harmonic(), space)
    e1 = np.linalg.norm(curvature_fd(harmonic_real(), zonal_harmonic(), space, h=2e-3) - y)
    e2 = np.linalg.norm(curvature_fd(harmonic_real(), zonal_harmonic(), space, h=1e-3) - y)
    assert 3.95 <= e1 / e2 <= 4.05


def test_curvature_fd_refuses_an_ill_conditioned_flowed_frame(monkeypatch):
    # no flowed frame of rotation_x and harmonic_real at N = 16 is refused
    # at any h in 0.04-0.0525, beyond which the flow leaves the chart, so
    # the refusal is forced: the third of the four flowed Grams at h = 0.045
    # gets a condition number of 1e9
    real_check = sphere.check_gram_spectrum
    calls = []

    def refuse_the_third(evals):
        calls.append(evals)
        if len(calls) == 3:
            evals = np.concatenate([[1e-9 * evals[-1]], evals[1:]])
        real_check(evals)

    monkeypatch.setattr(sphere, "check_gram_spectrum", refuse_the_third)
    space = SectionSpace(16)
    with pytest.raises(np.linalg.LinAlgError, match="ill-conditioned"):
        curvature_fd(rotation_x(), harmonic_real(), space, h=0.045)
    assert len(calls) == 3


def test_pullback_leaving_the_chart_raises_value_error():
    # rotation_x carries the outer grid ring through the far pole at
    # t ~ 0.0505: in 4 steps to t = 0.1, as in curvature_fd's 16, a step
    # overflows after t = 0.05.  One step of 0.1025 lands the points finite
    # (|z| <= 7.5e13, |c| <= 2.7e291), and c z^16 overflows in the frame at
    # t_end; that holds for one step to t in 0.10242-0.10258
    space = SectionSpace(16)
    with pytest.raises(
        ValueError, match=r"^pullback of rotation_x at N=16: the flow left the chart after t=0\.05 of"
    ):
        pullback_frame(rotation_x(), space, 0.1, n_steps=4)
    with pytest.raises(
        ValueError, match=r"^pullback of rotation_x at N=16: the flow left the chart after t=0\.1025 of"
    ):
        pullback_frame(rotation_x(), space, 0.1025, n_steps=1)
    with pytest.raises(
        ValueError, match=r"^pullback of rotation_x at N=16: the flow left the chart after t=0\.05 of"
    ):
        curvature_fd(rotation_x(), harmonic_real(), space, h=0.1)


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
    # frame^H @ (sqrtw f), on every column G z^k of two generators
    space = SectionSpace(big_n)
    frame = space.frame_at(space.grid.points, 1.0)
    for ham in (harmonic_real(), zonal_harmonic()):
        for k in range(big_n + 1):
            gk = generator_apply(ham, ChartFunction.monomial(k), big_n)
            grid = frame.conj().T @ (space.sqrtw * gk.eval(space.grid.points))
            assert _rel(space.coeffs(gk), grid) <= 1e-11, (ham.name, k)


@pytest.mark.parametrize("big_n", [8, 16, 64])
def test_exact_toeplitz_of_chi_matches_grid(big_n):
    space = SectionSpace(big_n)
    chi = chi_field(harmonic_real(), zonal_harmonic())
    grid = space.compress_mult(chi.eval(space.grid.points).real)
    assert _rel(space.toeplitz([chi])[0], grid) <= 1e-11


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
    monkeypatch.setattr(SphereGrid, "for_level", forbidden)
    monkeypatch.setattr(SectionSpace, "__init__", forbidden)
    rows = symbol_decay_experiment(harmonic_real(), zonal_harmonic(), [8, 16])
    assert rows[1]["eps"] < rows[0]["eps"]


def test_exact_oracles_at_largest_level():
    # rational closed forms at EXACT_LEVEL_MAX, where ||z^k||^2 underflows
    # a double and only the log-space entries stay finite
    big_n = EXACT_LEVEL_MAX
    basis = SectionBasis(big_n)
    k = np.arange(big_n + 1)
    t = basis.toeplitz([ChartFunction.monomial(1, 1, denom=1)])[0]
    assert _rel(t, np.diag((k + 1.0) / (big_n + 2.0))) < 1e-11
    # zbar lowers the degree: <e_{k-1}, zbar e_k> = sqrt(k / (N-k+1))
    t = basis.toeplitz([ChartFunction.monomial(0, 1)])[0]
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
    SectionSpace(GRID_LEVEL_MAX)
    for big_n in (GRID_LEVEL_MAX + 1, 80):
        with pytest.raises(ValueError, match=f"N={big_n}"):
            SectionSpace(big_n)


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


def _random_bounded_hamiltonian(rng):
    """A real h = p/(1+|z|^2)^2 with every bounded term z^a zbar^b, a + b <= 4."""
    p = ChartFunction(
        {(a, b): complex(*rng.normal(size=2)) for a in range(5) for b in range(5 - a)}, 2
    )
    return hamiltonian_from_chart("random", p + p.conj())


def test_flow_field_is_stored_in_compact_form():
    # a = i (1+|z|^2)^2 dh/dzbar with the factor cancelled: one denominator
    # power below h, and the same function as the expanded product
    rng = np.random.default_rng(5)
    z = 30.0 * np.sqrt(rng.random(500)) * np.exp(2j * np.pi * rng.random(500))
    one_plus_w_sq = ChartFunction({(0, 0): 1.0, (1, 1): 2.0, (2, 2): 1.0})
    for ham in [f() for f in HAMILTONIAN_LIBRARY.values()] + [_random_bounded_hamiltonian(rng)]:
        expanded = (1j * (one_plus_w_sq * ham.h.dzbar(0))).eval(z)
        assert ham.a.denom == ham.h.denom - 1, ham.name
        err = np.max(np.abs(ham.a.eval(z) - expanded))
        assert err <= 1e-14 * np.max(np.abs(expanded)), ham.name
    for f in (harmonic_real, harmonic_imag, zonal_harmonic):
        assert len(f().a.terms) == 2, f.__name__


def test_constant_hamiltonian_has_zero_field():
    ham = hamiltonian_from_chart("constant", ChartFunction({(0, 0): 0.5}))
    assert ham.a.terms == {}


def _decimal_operator_matrix(N, images):
    """Coefficient columns of the images with each Beta weight at 40 digits.

    The weight of z^a zbar^b/(1+w)^m against e_j, for the image of z^k, is
    a! (N+m-a)! (N+1)! / ((N+m+1)! sqrt(j! (N-j)! k! (N-k)!)): pi cancels.
    """
    f = math.factorial
    out = np.zeros((N + 1, len(images)), dtype=complex)
    with localcontext() as ctx:
        ctx.prec = 40
        for k, img in enumerate(images):
            sums = {}
            for (a, b), c in img.terms.items():
                j, m = a - b, img.denom
                if not 0 <= j <= N:
                    continue
                w = Decimal(f(a) * f(N + m - a) * f(N + 1)) / Decimal(f(N + m + 1))
                w /= Decimal(f(j) * f(N - j) * f(k) * f(N - k)).sqrt()
                re, im = sums.get(j, (Decimal(0), Decimal(0)))
                sums[j] = (re + Decimal(c.real) * w, im + Decimal(c.imag) * w)
            for j, (re, im) in sums.items():
                out[j, k] = complex(float(re), float(im))
    return out


def test_pairings_are_exact_to_rounding():
    # the same generator images paired at 40 digits: Y differs only by the
    # double rounding of the sums and products, not by the log-space weights
    N = 64
    h1, h2 = harmonic_real(), zonal_harmonic()
    y = curvature_commutator(h1, h2, SectionBasis(N))
    ref = compressed_curvature(
        [ChartFunction.monomial(k) for k in range(N + 1)],
        lambda f: generator_apply(h1, f, N),
        lambda f: generator_apply(h2, f, N),
        lambda images: _decimal_operator_matrix(N, images),
        N + 1,
    )
    assert np.max(np.abs(y - ref)) <= 1e-12


def _eval_points():
    # the level-16 grid, the origin, points far out and points flowed off the grid
    rng = np.random.default_rng(3)
    flowed = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    return np.concatenate(
        [SphereGrid.for_level(16).points, [0.0, 1e-9j, 40.0 - 25.0j], 3.0 * flowed]
    )


def _assert_eval_batch_matches_reference(cfs, z):
    got = sphere.eval_batch(cfs, z)
    ref = eval_batch_reference(cfs, z)
    assert len(got) == len(ref) == len(cfs)
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype and g.shape == r.shape
        assert np.array_equal(g, r)


@pytest.mark.parametrize("N", [1, 16, 72])
def test_eval_batch_equals_reference_on_library_fields(N):
    # skipping the unit powers leaves every value the same to the bit
    z = _eval_points()
    for make in HAMILTONIAN_LIBRARY.values():
        ham = make()
        _assert_eval_batch_matches_reference([ham.a, sphere.phase_rate(ham, N)], z)
        _assert_eval_batch_matches_reference([sphere.phase_rate(ham, N)], z)


def test_eval_batch_equals_reference_on_edge_functions():
    z = _eval_points()
    edge = [
        ChartFunction({(0, 0): 0.7 - 0.2j}, denom=2),  # constant term only
        ChartFunction.monomial(3, coeff=1.5j),  # pure z^a
        ChartFunction.monomial(0, 2, coeff=-0.5, denom=1),  # pure zbar^b
        ChartFunction({(0, 0): 2.0, (1, 0): 1j, (0, 1): -1.0, (2, 3): 0.25}),  # denominator 0
        ChartFunction(),  # no terms
    ]
    for cf in edge:
        _assert_eval_batch_matches_reference([cf], z)
    _assert_eval_batch_matches_reference(edge, z)
    _assert_eval_batch_matches_reference([ChartFunction(), ChartFunction(denom=3)], z)
    assert sphere.eval_batch([], z) == eval_batch_reference([], z) == []
