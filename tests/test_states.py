import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ipower.errors import (
    BadSubsystemError,
    DimensionMismatchError,
    NonHermitianError,
    NotPositiveSemidefiniteError,
    ZeroPurityError,
)
from ipower.linalg import SIGMA_Z, dagger, tensor
from ipower.probes import BELL_PHI_PLUS, bell_diagonal_state, bell_probe
from ipower.sampling import random_density_matrix, random_pure_density_matrix
from ipower.states import (
    DensityMatrix,
    LocalHamiltonian,
    evolve,
    hs_fidelity,
    load_state,
    partial_trace,
    save_state,
)
from ipower.verify import check_evolve_spectrum

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def qubit_state(bloch):
    m = (np.eye(2, dtype=complex)
         + bloch[0] * np.array([[0, 1], [1, 0]])
         + bloch[1] * np.array([[0, -1j], [1j, 0]])
         + bloch[2] * np.array([[1, 0], [0, -1]])) / 2.0
    return m


class TestDensityMatrixValidation:
    def test_accepts_valid_state(self):
        rho = DensityMatrix.from_matrix(np.eye(4) / 4.0, (2, 2))
        assert rho.dim == 4
        assert rho.purity() == pytest.approx(0.25)
        assert rho.eigenvalues.sum() == pytest.approx(1.0)

    def test_rejects_non_hermitian(self):
        m = np.eye(4) / 4.0 + 1e-6 * np.array([[0, 1, 0, 0]] + [[0] * 4] * 3)
        with pytest.raises(NonHermitianError):
            DensityMatrix.from_matrix(m, (2, 2))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix.from_matrix(np.eye(4) / 2.0, (2, 2))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.5, -0.1, 0.0])
        with pytest.raises(NotPositiveSemidefiniteError):
            DensityMatrix.from_matrix(m, (2, 2))

    def test_rejects_bad_dims(self):
        with pytest.raises(DimensionMismatchError):
            DensityMatrix.from_matrix(np.eye(4) / 4.0, (3, 2))

    def test_spectrum_reconstructs_matrix(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            rho = random_density_matrix((2, 2), rng)
            recon = (rho.eigenvectors * rho.eigenvalues) @ dagger(rho.eigenvectors)
            assert_allclose(recon, rho.matrix, atol=1e-9)

    def test_tiny_negative_eigenvalues_clamped(self):
        m = np.diag([0.5, 0.5, 1e-10, -1e-10])
        rho = DensityMatrix.from_matrix(m, (2, 2))
        assert rho.eigenvalues.min() >= 0.0
        assert rho.eigenvalues.sum() == pytest.approx(1.0, abs=1e-15)


class TestPartialTrace:
    def test_product_basis_state(self):
        ket = np.zeros(4)
        ket[0] = 1.0
        rho = DensityMatrix.from_matrix(np.outer(ket, ket), (2, 2))
        reduced = partial_trace(rho, "A")
        assert_allclose(reduced.matrix, [[1, 0], [0, 0]], atol=1e-14)

    def test_bell_state_marginal(self):
        # Direct summation over B indices gives the maximally mixed qubit.
        rho = bell_probe()
        assert_allclose(partial_trace(rho, "A").matrix, np.eye(2) / 2.0, atol=1e-14)
        assert_allclose(partial_trace(rho, "B").matrix, np.eye(2) / 2.0, atol=1e-14)

    def test_bell_diagonal_marginals_maximally_mixed(self):
        rho = bell_diagonal_state(0.5, -0.3, 0.2)
        assert_allclose(partial_trace(rho, "A").matrix, np.eye(2) / 2.0, atol=1e-12)
        assert_allclose(partial_trace(rho, "B").matrix, np.eye(2) / 2.0, atol=1e-12)

    def test_product_states_factor(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            rho_a = random_density_matrix((2, 1), rng)
            rho_b = random_density_matrix((3, 1), rng)
            joint = DensityMatrix.from_matrix(
                tensor(rho_a.matrix, rho_b.matrix), (2, 3)
            )
            assert_allclose(partial_trace(joint, "A").matrix, rho_a.matrix, atol=1e-9)
            assert_allclose(partial_trace(joint, "B").matrix, rho_b.matrix, atol=1e-9)

    def test_bad_label(self):
        rho = DensityMatrix.from_matrix(np.eye(4) / 4.0, (2, 2))
        with pytest.raises(BadSubsystemError):
            partial_trace(rho, "C")


class TestEvolve:
    def test_zero_phase_is_identity(self):
        rng = np.random.default_rng(2)
        rho = random_density_matrix((2, 2), rng)
        ham = LocalHamiltonian.from_matrix(SIGMA_Z)
        assert_allclose(evolve(rho, ham, 0.0).matrix, rho.matrix, atol=1e-14)

    def test_commuting_state_unchanged(self):
        rho = DensityMatrix.from_matrix(np.diag([0.4, 0.3, 0.2, 0.1]), (2, 2))
        ham = LocalHamiltonian.from_matrix(SIGMA_Z)
        assert_allclose(evolve(rho, ham, 1.234).matrix, rho.matrix, atol=1e-14)

    def test_bloch_rotation(self):
        # exp(-i phi sigma_z) turns the Bloch vector by 2 phi about z:
        # phi = pi/4 carries (1, 0, 0) to (0, 1, 0).
        plus = qubit_state([1.0, 0.0, 0.0])
        rho = DensityMatrix.from_matrix(tensor(plus, np.eye(2) / 2.0), (2, 2))
        out = evolve(rho, LocalHamiltonian.from_matrix(SIGMA_Z), np.pi / 4)
        expected = tensor(qubit_state([0.0, 1.0, 0.0]), np.eye(2) / 2.0)
        assert_allclose(out.matrix, expected, atol=1e-14)

    def test_spectrum_preserved(self):
        result = check_evolve_spectrum(np.random.default_rng(3), 25, 1e-9)
        assert result.passed, result.line()

    def test_dimension_mismatch(self):
        rho = DensityMatrix.from_matrix(np.eye(4) / 4.0, (4, 1))
        with pytest.raises(DimensionMismatchError):
            evolve(rho, LocalHamiltonian.from_matrix(SIGMA_Z), 0.1)


class TestHsFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(4)
        rho = random_density_matrix((2, 2), rng)
        assert hs_fidelity(rho, rho) == pytest.approx(1.0)

    def test_orthogonal_pure_states(self):
        zero = DensityMatrix.from_matrix(np.diag([1.0, 0.0]), (2, 1))
        one = DensityMatrix.from_matrix(np.diag([0.0, 1.0]), (2, 1))
        assert hs_fidelity(zero, one) == pytest.approx(0.0)

    def test_pure_against_maximally_mixed(self):
        zero = DensityMatrix.from_matrix(np.diag([1.0, 0.0]), (2, 1))
        mixed = DensityMatrix.from_matrix(np.eye(2) / 2.0, (2, 1))
        assert hs_fidelity(zero, mixed) == pytest.approx(INV_SQRT2)

    def test_symmetry_and_pure_state_discrimination(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = random_pure_density_matrix((2, 2), rng)
            b = random_pure_density_matrix((2, 2), rng)
            assert hs_fidelity(a, b) == pytest.approx(hs_fidelity(b, a))
            assert hs_fidelity(a, b) < 1.0 - 1e-6
            assert hs_fidelity(a, a) == pytest.approx(1.0)

    def test_zero_purity_guard(self):
        good = DensityMatrix.from_matrix(np.eye(2) / 2.0, (2, 1))
        degenerate = DensityMatrix(
            np.zeros((2, 2), dtype=complex),
            (2, 1),
            good.eigenvalues,
            good.eigenvectors,
        )
        with pytest.raises(ZeroPurityError):
            hs_fidelity(good, degenerate)


class TestJsonInterchange:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        rho = random_density_matrix((2, 2), rng)
        path = tmp_path / "state.json"
        save_state(rho, path)
        back = load_state(path)
        assert back.dims == rho.dims
        assert np.array_equal(back.matrix, rho.matrix)

    def test_schema_shape(self):
        rho = bell_probe()
        payload = json.loads(rho.to_json())
        assert set(payload) == {"dims", "re", "im"}
        assert payload["dims"] == [2, 2]
        assert payload["re"][0][3] == pytest.approx(0.5)

    def test_malformed_payloads_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix.from_json_dict({"dims": [2, 2], "re": [[1]]})
        with pytest.raises(ValueError):
            DensityMatrix.from_json_dict({"dims": [2], "re": [[1]], "im": [[0]]})


def test_local_hamiltonian_bloch_detection():
    ham = LocalHamiltonian.from_matrix(SIGMA_Z)
    assert_allclose(ham.bloch_vector, [0, 0, 1])
    assert_allclose(ham.spectrum, [-1, 1])
    shifted = LocalHamiltonian.from_matrix(SIGMA_Z + np.eye(2))
    assert shifted.bloch_vector is None
    with pytest.raises(ValueError, match="unit"):
        LocalHamiltonian.from_bloch([1.0, 1.0, 0.0])


def test_bell_state_vector_convention():
    assert_allclose(BELL_PHI_PLUS, [INV_SQRT2, 0, 0, INV_SQRT2])
