import numpy as np
import pytest

from quantcurv.symplectic import (
    assert_sp_element,
    assert_tangent_at,
    chi_symbol,
    hamiltonian_from_form,
    omega_pairing,
    p_minus_basis,
    p_plus_basis,
    standard_complex_structure,
    standard_symplectic,
    tangent_from_generator,
)


def _gradient(h, v):
    # dH = 2 S v for H(v) = v^T S v
    return 2.0 * h.form_matrix() @ np.asarray(v, dtype=float)


def _vector_field(h, v):
    # Hamiltonian field xi_H(v) = (dH/dy, -dH/dx) = -X v
    return -h.generator @ np.asarray(v, dtype=float)


def test_standard_matrices():
    sigma = standard_symplectic(2)
    j0 = standard_complex_structure(2)
    assert np.array_equal(sigma, j0)
    assert np.max(np.abs(sigma @ sigma + np.eye(4))) == 0.0
    assert_sp_element(j0)


def test_quadratic_hamiltonian_value_and_gradient():
    # H(v) = (x^2 + y^2) / 2 from the symmetric form I/2
    h = hamiltonian_from_form(np.eye(2) / 2.0)
    v = np.array([3.0, 4.0])
    assert v @ h.form_matrix() @ v == pytest.approx(12.5)
    assert np.allclose(_gradient(h, v), v)


def test_vector_field_rotation_direction():
    # with our orientation the unit harmonic oscillator flows clockwise:
    # xi(1, 0) = (0, -1)
    h = hamiltonian_from_form(np.eye(2) / 2.0)
    assert np.allclose(_vector_field(h, np.array([1.0, 0.0])), [0.0, -1.0], atol=1e-14)
    # flowing the field for time 2*pi returns to the start
    from quantcurv.linalg import OdeStepper

    y = OdeStepper(1e-3).propagate(
        lambda t, v: _vector_field(h, v.real), 0.0, np.array([1.0, 0.0], dtype=complex), 2.0 * np.pi
    )
    assert np.max(np.abs(y - np.array([1.0, 0.0]))) < 1e-9


def test_omega_pairing_oracle_and_bilinearity():
    a = np.diag([1.0, -1.0])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert omega_pairing(a, b) == pytest.approx(-2.0)
    assert omega_pairing(b, a) == pytest.approx(2.0)
    assert omega_pairing(a, a) == pytest.approx(0.0)
    assert omega_pairing(2.0 * a, b) == pytest.approx(-4.0)


def test_p_basis_counts_and_generators():
    assert len(p_plus_basis(1)) == 1
    assert len(p_minus_basis(1)) == 1
    assert len(p_plus_basis(2)) == 3
    assert len(p_minus_basis(2)) == 3
    xp = p_plus_basis(1)[0].generator
    xm = p_minus_basis(1)[0].generator
    assert np.allclose(xp, [[0.0, 4.0], [4.0, 0.0]], atol=1e-14)
    assert np.allclose(xm, [[4.0, 0.0], [0.0, -4.0]], atol=1e-14)
    # p-part generators anticommute with J0
    j0 = standard_complex_structure(1)
    for x in (xp, xm):
        assert np.max(np.abs(j0 @ x + x @ j0)) < 1e-14


def test_tangent_from_generator_anticommutes():
    j0 = standard_complex_structure(1)
    xp = p_plus_basis(1)[0].generator
    a = tangent_from_generator(xp / 2.0, j0)
    assert np.allclose(a, np.diag([4.0, -4.0]), atol=1e-14)
    assert_tangent_at(a, j0)
    # generators commuting with J0 move nothing
    k = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.max(np.abs(tangent_from_generator(k, j0))) == 0.0


def test_chi_symbol_flat_oracle():
    j0 = standard_complex_structure(1)
    ap = tangent_from_generator(p_plus_basis(1)[0].generator / 2.0, j0)
    am = tangent_from_generator(p_minus_basis(1)[0].generator / 2.0, j0)
    assert chi_symbol(ap, j0, am) == pytest.approx(32.0, abs=1e-12)
    # antisymmetric in its two tangent slots, zero on the diagonal
    assert chi_symbol(am, j0, ap) == pytest.approx(-32.0, abs=1e-12)
    assert chi_symbol(ap, j0, ap) == pytest.approx(0.0, abs=1e-12)


def test_chi_symbol_rejects_non_tangent():
    j0 = standard_complex_structure(1)
    with pytest.raises(ValueError):
        chi_symbol(np.eye(2), j0, np.eye(2))


def test_sp_checks_reject_bad_input():
    with pytest.raises(ValueError):
        assert_sp_element(np.diag([2.0, 1.0]))
