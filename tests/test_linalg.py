import numpy as np
import pytest
from numpy.testing import assert_allclose

from ipower.errors import NonHermitianError
from ipower.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    eig_hermitian,
    expm_hermitian,
    is_hermitian,
    tensor,
)
from ipower.verify import check_eig_roundtrip

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def overlap(u, v):
    """Modulus of the inner product; 1 means equal up to a global phase."""
    return abs(np.vdot(u, v))


class TestEigHermitian:
    def test_identity(self):
        vals, vecs = eig_hermitian(np.eye(2))
        assert_allclose(vals, [1.0, 1.0])
        assert_allclose(dagger(vecs) @ vecs, np.eye(2), atol=1e-14)

    def test_sigma_z(self):
        vals, vecs = eig_hermitian(SIGMA_Z)
        assert_allclose(vals, [-1.0, 1.0])
        assert overlap(vecs[:, 0], [0, 1]) == pytest.approx(1.0)
        assert overlap(vecs[:, 1], [1, 0]) == pytest.approx(1.0)

    def test_sigma_x(self):
        # Hand diagonalization: eigenpairs (-1, (|0>-|1>)/sqrt2), (+1, (|0>+|1>)/sqrt2).
        vals, vecs = eig_hermitian(SIGMA_X)
        assert_allclose(vals, [-1.0, 1.0])
        assert overlap(vecs[:, 0], [INV_SQRT2, -INV_SQRT2]) == pytest.approx(1.0)
        assert overlap(vecs[:, 1], [INV_SQRT2, INV_SQRT2]) == pytest.approx(1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_eigen_equation_and_orthonormality(self):
        # Sorted eigenvalues, eigen equation, orthonormality and reconstruction.
        result = check_eig_roundtrip(np.random.default_rng(11), 100, 1e-9)
        assert result.passed, result.line()

    def test_deterministic_on_degenerate_input(self):
        m = tensor(SIGMA_Z, np.eye(2))  # doubly degenerate spectrum
        vals1, vecs1 = eig_hermitian(m)
        vals2, vecs2 = eig_hermitian(m.copy())
        assert_allclose(vals1, vals2)
        assert_allclose(vecs1, vecs2)


class TestTensor:
    def test_sigma_z_with_identity(self):
        assert_allclose(tensor(SIGMA_Z, np.eye(2)), np.diag([1, 1, -1, -1]))

    def test_identity_with_identity(self):
        assert_allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_x_with_sigma_x(self):
        # Direct 4x4 expansion by the Kronecker rule: anti-diagonal ones.
        expected = np.zeros((4, 4))
        expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1.0
        assert_allclose(tensor(SIGMA_X, SIGMA_X), expected)

    def test_entry_rule(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        out = tensor(a, b)
        for i in range(3):
            for j in range(3):
                for k in range(2):
                    for l in range(2):
                        assert out[2 * i + k, 2 * j + l] == pytest.approx(
                            a[i, j] * b[k, l], abs=1e-15
                        )


def test_is_hermitian():
    assert is_hermitian(SIGMA_Y)
    assert not is_hermitian(SIGMA_Y + 1e-8 * np.array([[0, 1], [0, 0]]))


def test_expm_hermitian_matches_series():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (z + dagger(z)) / 2.0
    u = expm_hermitian(h, -1j * 0.37)
    series = np.eye(3, dtype=complex)
    term = np.eye(3, dtype=complex)
    for n in range(1, 40):
        term = term @ (-1j * 0.37 * h) / n
        series = series + term
    assert_allclose(u, series, atol=1e-12)
    assert_allclose(u @ dagger(u), np.eye(3), atol=1e-12)
