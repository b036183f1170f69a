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
from ipower.sampling import haar_unitary, random_density_matrix, random_pure_density_matrix
from ipower.states import (
    DensityMatrix,
    LocalHamiltonian,
    evolve,
    hs_fidelity,
    load_state,
    partial_trace,
    save_state,
)

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

    def test_near_degenerate_eigenpairs_rebuild_the_state(self):
        # Eigenvalues 2e-9 apart lie in one degenerate cluster; the stored
        # eigenpairs must still rebuild the matrix, as evolve at phase 0 does.
        ham = LocalHamiltonian.from_matrix(SIGMA_Z)
        worst = 0.0
        for seed in range(20):
            u = haar_unitary(4, np.random.default_rng(seed))
            m = (u * [0.3 + 1e-9, 0.3 - 1e-9, 0.25, 0.15]) @ dagger(u)
            rho = DensityMatrix.from_matrix(m, (2, 2))
            worst = max(worst, np.max(np.abs(evolve(rho, ham, 0.0).matrix - rho.matrix)))
        assert worst <= 1e-14

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
        payload = json.loads(json.dumps(rho.to_json_dict()))
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


def reference_from_matrix(m):
    """The Hermitian part, eigendecomposition, clamp and renormalization of a valid
    state one matrix at a time, as from_matrix did before its stacked kernel: the
    reference the kernel must equal bitwise."""
    arr = np.asarray(m, dtype=complex)
    herm = (arr + dagger(arr)) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    vals = np.clip(vals, 0.0, None)
    return herm, vals / vals.sum(), vecs


def random_states_of_every_rank(rng):
    """(d_B, states): for d_B = 2-4, two random states of each rank 1 .. 2 d_B."""
    return [
        (d_b, [random_density_matrix((2, d_b), rng, env_dim=r) for r in range(1, 2 * d_b + 1)
               for _ in range(2)])
        for d_b in (2, 3, 4)
    ]


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def _state_bits(rho):
    return _bits(rho.matrix, rho.eigenvalues, rho.eigenvectors)


class TestStackedSpectra:
    def test_stack_equals_the_reference_matrix_by_matrix(self):
        for d_b, states in random_states_of_every_rank(np.random.default_rng(190)):
            matrices = np.stack([rho.matrix for rho in states])
            stack = DensityMatrix.from_matrix(matrices, (2, d_b))
            assert stack.matrix.shape == matrices.shape and stack.dims == (2, d_b)
            for i, m in enumerate(matrices):
                reference = reference_from_matrix(m)
                single = DensityMatrix.from_matrix(m, (2, d_b))
                assert _bits(stack.matrix[i], stack.eigenvalues[i], stack.eigenvectors[i]) == (
                    _bits(*reference)
                )
                assert _state_bits(single) == _bits(*reference)
                assert _state_bits(stack[i]) == _bits(*reference)

    def test_stack_rejects_what_a_single_matrix_rejects(self):
        for shape in [(4,), (2, 4, 3), (1, 1, 4, 4)]:
            with pytest.raises(ValueError, match="square matrix"):
                DensityMatrix.from_matrix(np.ones(shape) / 4.0, (2, 2))
        one = DensityMatrix.from_matrix(np.stack([np.eye(4) / 4.0]), (2, 2))
        assert one.matrix.shape == (1, 4, 4) and one.eigenvalues.shape == (1, 4)

    @pytest.mark.parametrize(
        "faults, error, message",
        [
            # (row, fault) pairs; the lowest-index bad row raises its first failed check.
            ([(1, "psd"), (2, "herm")], NotPositiveSemidefiniteError, "minimum eigenvalue"),
            ([(1, "herm"), (2, "psd")], NonHermitianError, "not Hermitian"),
            ([(2, "nan"), (3, "psd")], ValueError, "must be finite"),
            ([(1, "trace"), (1, "herm")], NonHermitianError, "not Hermitian"),
            ([(0, "trace"), (1, "nan")], ValueError, "trace must be 1"),
            ([(3, "psd"), (2, "trace")], ValueError, "trace must be 1"),
        ],
    )
    def test_lowest_bad_matrix_raises_its_own_error(self, faults, error, message):
        stack = np.stack([np.eye(4, dtype=complex) / 4.0] * 4)
        planted = {
            "psd": lambda m: np.diag([0.6, 0.5, -0.1, 0.0]),
            "herm": lambda m: m + 1e-6 * np.eye(4, k=1),
            "nan": lambda m: np.full((4, 4), np.nan),
            "trace": lambda m: 2.0 * m,
        }
        for row, fault in faults:
            stack[row] = planted[fault](stack[row])
        first = min(row for row, _ in faults)
        with pytest.raises(error, match=message) as stacked:
            DensityMatrix.from_matrix(stack, (2, 2))
        with pytest.raises(error) as single:
            DensityMatrix.from_matrix(stack[first], (2, 2))
        assert str(stacked.value) == str(single.value)

    def test_bad_dims_fail_the_first_matrix(self):
        stack = np.stack([np.eye(4) / 4.0] * 2)
        with pytest.raises(DimensionMismatchError, match="product 4"):
            DensityMatrix.from_matrix(stack, (2, 3))
        stack[0, 0, 1] = 1e-6  # the first matrix fails its Hermitian check first
        with pytest.raises(NonHermitianError):
            DensityMatrix.from_matrix(stack, (2, 3))

    def test_empty_stack_checks_its_dims(self):
        empty = DensityMatrix.from_matrix(np.empty((0, 6, 6)), (2, 3))
        assert empty.eigenvalues.shape == (0, 6)
        with pytest.raises(DimensionMismatchError, match="product 6"):
            DensityMatrix.from_matrix(np.empty((0, 6, 6)), (2, 2))


class TestStackIndexing:
    def stack(self):
        _, states = random_states_of_every_rank(np.random.default_rng(191))[1]
        return states, DensityMatrix.from_matrix(np.stack([r.matrix for r in states]), (2, 3))

    def test_rows_slices_and_masks_select_states(self):
        states, stack = self.stack()
        rows = np.array([3, 0, 3, 7])
        mask = np.arange(len(states)) % 3 == 0
        for index, picked in ((rows, rows), (slice(2, 9, 3), range(2, 9, 3)),
                              (mask, np.flatnonzero(mask)), (-1, len(states) - 1)):
            part = stack[index]
            assert part.dims == (2, 3)
            if np.ndim(picked) == 0:
                assert _state_bits(part) == _state_bits(states[picked])
                continue
            for i, j in enumerate(picked):
                assert _state_bits(part[i]) == _state_bits(states[j])

    def test_indexed_arrays_are_read_only(self):
        _, stack = self.stack()
        for part in (stack[2], stack[[1, 2]], stack[1:3]):
            assert not any(
                a.flags.writeable for a in (part.matrix, part.eigenvalues, part.eigenvectors)
            )

    def test_bad_indices_raise(self):
        _, stack = self.stack()
        with pytest.raises(IndexError):
            stack[len(stack.matrix)]
        with pytest.raises(IndexError):
            stack[0, 1]  # an index into the matrix, not the stack
        with pytest.raises(ValueError, match="no stack axis"):
            stack[0][0]
