import numpy as np
import pytest
from numpy.testing import assert_allclose

from ipower.linalg import dagger
from ipower.sampling import (
    amplitude_damping_kraus,
    apply_channel_b,
    depolarizing_kraus,
    haar_unitary,
    random_density_matrix,
    random_isometry_kraus,
    remix_degenerate_eigenspaces,
)


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(0)
    for dim in (2, 3, 4):
        u = haar_unitary(dim, rng)
        assert_allclose(u @ dagger(u), np.eye(dim), atol=1e-12)


def test_random_density_matrix_rank_control():
    rng = np.random.default_rng(1)
    pure = random_density_matrix((2, 2), rng, env_dim=1)
    assert pure.purity() == pytest.approx(1.0, abs=1e-12)
    full = random_density_matrix((2, 2), rng)
    assert np.all(full.eigenvalues > 1e-6)
    rank2 = random_density_matrix((2, 2), rng, env_dim=2)
    assert np.sum(rank2.eigenvalues > 1e-9) == 2


def test_channels_preserve_state_validity():
    rng = np.random.default_rng(3)
    rho = random_density_matrix((2, 2), rng)
    for kraus in (depolarizing_kraus(0.3), amplitude_damping_kraus(0.4)):
        out = apply_channel_b(rho, kraus)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert out.eigenvalues.min() >= 0.0


def test_kraus_completeness():
    isometric = random_isometry_kraus(2, np.random.default_rng(6))
    for kraus in (depolarizing_kraus(0.7), amplitude_damping_kraus(0.2), isometric):
        total = sum(dagger(k) @ k for k in kraus)
        assert_allclose(total, np.eye(2), atol=1e-12)


def test_remix_keeps_the_state():
    rng = np.random.default_rng(4)
    from ipower.probes import werner_state

    rho = werner_state(0.4)
    remixed = remix_degenerate_eigenspaces(rho, rng)
    vecs = remixed.eigenvectors
    assert_allclose((vecs * remixed.eigenvalues) @ dagger(vecs), rho.matrix, atol=1e-12)
    assert np.max(np.abs(remixed.eigenvectors - rho.eigenvectors)) > 1e-3
