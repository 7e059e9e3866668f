import numpy as np
import pytest

from dirac_zero_lab.clifford import (
    ALPHA,
    PAULI,
    CliffordReport,
    alpha_dot,
    check_clifford,
    invert_alpha_dot,
)

I2 = np.eye(2)
I4 = np.eye(4)


def test_pauli_displays():
    assert np.array_equal(PAULI[0], np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(PAULI[1], np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(PAULI[2], np.array([[1, 0], [0, -1]], dtype=complex))


def test_pauli_squares_to_identity():
    for s in PAULI:
        assert np.array_equal(s @ s, I2)


def test_alpha_block_structure():
    for a, s in zip(ALPHA, PAULI):
        assert np.array_equal(a[:2, 2:], s)
        assert np.array_equal(a[2:, :2], s)
        assert np.array_equal(a[:2, :2], np.zeros((2, 2)))
        assert np.array_equal(a[2:, 2:], np.zeros((2, 2)))


def test_alpha_matrices_hermitian_traceless_involutive():
    for a in ALPHA:
        assert np.array_equal(a, a.conj().T)
        assert a.trace() == 0
        assert np.array_equal(a @ a, I4)


def test_alpha_anticommutators_vanish_offdiagonal():
    for j in range(3):
        for k in range(3):
            anti = ALPHA[j] @ ALPHA[k] + ALPHA[k] @ ALPHA[j]
            expected = 2 * I4 if j == k else np.zeros((4, 4))
            assert np.array_equal(anti, expected)


def test_alpha_dot_basis_vectors():
    assert np.array_equal(alpha_dot((1, 0, 0)), ALPHA[0])
    assert np.array_equal(alpha_dot((0, 1, 0)), ALPHA[1])
    assert np.array_equal(alpha_dot((0, 0, 1)), ALPHA[2])


def test_alpha_dot_square_is_norm_squared():
    # direct 4x4 multiplication oracle
    m = alpha_dot((1.0, 2.0, 3.0))
    assert np.max(np.abs(m @ m - 14.0 * I4)) <= 1e-14 * 14.0


def test_alpha_dot_zero_vector():
    assert np.array_equal(alpha_dot((0.0, 0.0, 0.0)), np.zeros((4, 4)))


def test_alpha_dot_rejects_bad_input():
    with pytest.raises(ValueError):
        alpha_dot((1.0, np.inf, 0.0))
    with pytest.raises(ValueError):
        alpha_dot((1.0, 2.0))


def test_invert_alpha_dot_unit_vector_self_inverse():
    assert np.array_equal(invert_alpha_dot((1, 0, 0)), ALPHA[0])


def test_invert_alpha_dot_product_oracle():
    v = (3.0, -1.0, 2.0)
    prod = invert_alpha_dot(v) @ alpha_dot(v)
    assert np.max(np.abs(prod - I4)) <= 1e-14


def test_invert_alpha_dot_zero_raises():
    with pytest.raises(ZeroDivisionError):
        invert_alpha_dot((0.0, 0.0, 0.0))


def test_random_vector_identities_seeded():
    rng = np.random.default_rng(7)
    for _ in range(100):
        v = rng.uniform(-5.0, 5.0, 3)
        n2 = v @ v
        m = alpha_dot(v)
        assert np.max(np.abs(m @ m - n2 * I4)) <= 1e-14 * n2
        assert np.max(np.abs(m @ invert_alpha_dot(v) - I4)) <= 1e-14


def test_check_clifford_exact_zero():
    report = check_clifford()
    assert isinstance(report, CliffordReport)
    assert report.max_deviation == 0.0
    assert len(report.deviations) == 9
    assert {(j, k) for j, k, _ in report.deviations} == {(j, k) for j in (1, 2, 3) for k in (1, 2, 3)}


def test_check_clifford_detects_corruption(monkeypatch):
    from dirac_zero_lab import clifford

    mats = tuple(a.copy() for a in ALPHA)
    eps = 1e-3
    mats[0][0, 3] += eps
    monkeypatch.setattr(clifford, "ALPHA", mats)
    report = check_clifford()
    # perturbation oracle: {A + eps E, A + eps E} = 2I + 2 eps (A E + E A)
    e = np.zeros((4, 4))
    e[0, 3] = 1.0
    expected_11 = float(np.max(np.abs(ALPHA[0] @ e + e @ ALPHA[0]))) * 2 * eps
    deviation = {(j, k): d for j, k, d in report.deviations}
    assert deviation[1, 1] == pytest.approx(expected_11, rel=1e-9)
    assert deviation[1, 1] == pytest.approx(2e-3, rel=1e-9)
    assert report.max_deviation == deviation[1, 1]
    # untouched pair stays exact
    assert deviation[2, 3] == 0.0


def test_matrices_are_read_only():
    for m in (*PAULI, *ALPHA):
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 99.0
        assert m[0, 0] != 99.0
