import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ipower.correlations import (
    interferometric_power,
    ip_bell_diagonal,
    ip_grid_search,
    local_quantum_uncertainty,
    min_local_variance,
    qfi,
    qfi_quadratic_form,
    qfi_scaling_check,
    qfi_sphere_grid,
    skew_grid_search,
    skew_information,
    sld,
)
from ipower.errors import (
    DimensionMismatchError,
    InvalidCorrelationTripleError,
    SubsystemANotQubitError,
)
from ipower.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, dagger, tensor
from ipower.probes import (
    classical_probe,
    discordant_probe,
    separable_discordant_state,
    setting_hamiltonian,
    werner_state,
)
from ipower.sampling import (
    apply_channel_b,
    haar_unitary,
    random_density_matrix,
    random_pure_density_matrix,
    remix_degenerate_eigenspaces,
)
from ipower.states import DensityMatrix, LocalHamiltonian, evolve
from ipower.verify import (
    check_faithfulness,
    check_hierarchy,
    check_pure_state_reduction,
)

MIXED = DensityMatrix.from_matrix(np.eye(4) / 4.0, (2, 2))


def pure_state(ket, dims=(2, 2)):
    ket = np.asarray(ket, dtype=complex)
    ket = ket / np.linalg.norm(ket)
    return DensityMatrix.from_matrix(np.outer(ket, ket.conj()), dims)


def variance_oracle(rho, ham):
    """4 (<H^2> - <H>^2) evaluated with explicit matrices."""
    h = tensor(ham.matrix, np.eye(rho.d_b))
    first = np.trace(rho.matrix @ h).real
    second = np.trace(rho.matrix @ h @ h).real
    return 4.0 * (second - first * first)


class TestQfi:
    def test_discordant_probe_under_sigma_z(self):
        for p in (0.0, 0.3, 0.8, 1.0):
            value = qfi(discordant_probe(p), setting_hamiltonian(1))
            assert value == pytest.approx(8 * p**2 / (1 + p**2), abs=1e-12)
        assert qfi(discordant_probe(1.0), setting_hamiltonian(1)) == pytest.approx(4.0)

    def test_classical_probe_under_sigma_x_vanishes(self):
        for p in (0.1, 0.5, 1.0):
            assert qfi(classical_probe(p), setting_hamiltonian(3)) <= 1e-14

    def test_pure_product_state_equals_variance_oracle(self):
        plus_zero = pure_state([1, 0, 1, 0])
        ham = setting_hamiltonian(1)
        assert qfi(plus_zero, ham) == pytest.approx(4.0, abs=1e-12)
        assert qfi(plus_zero, ham) == pytest.approx(
            variance_oracle(plus_zero, ham), abs=1e-12
        )

    def test_pure_states_equal_variance_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rho = random_pure_density_matrix((2, 2), rng)
            n = rng.standard_normal(3)
            ham = LocalHamiltonian.from_bloch(n / np.linalg.norm(n))
            assert qfi(rho, ham) == pytest.approx(
                variance_oracle(rho, ham), abs=1e-10
            )

    def test_dimension_mismatch(self):
        rho = DensityMatrix.from_matrix(np.eye(4) / 4.0, (4, 1))
        with pytest.raises(DimensionMismatchError):
            qfi(rho, setting_hamiltonian(1))

    def test_eigenvector_phase_invariance(self):
        rng = np.random.default_rng(8)
        rho = random_density_matrix((2, 2), rng)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, rho.dim))
        rephased = DensityMatrix.from_spectrum(
            rho.eigenvalues, rho.eigenvectors * phases, rho.dims
        )
        ham = setting_hamiltonian(2)
        assert qfi(rephased, ham) == pytest.approx(qfi(rho, ham), abs=1e-12)


class TestSld:
    def test_commuting_state_gives_zero(self):
        rho = DensityMatrix.from_matrix(np.diag([0.4, 0.3, 0.2, 0.1]), (2, 2))
        decomposition = sld(rho, LocalHamiltonian.from_matrix(SIGMA_Z), 0.7)
        assert np.max(np.abs(decomposition.eigenvalues)) <= 1e-12

    def test_classical_probe_worst_setting_gives_zero(self):
        decomposition = sld(classical_probe(0.8), setting_hamiltonian(3), math.pi / 4)
        assert np.max(np.abs(decomposition.eigenvalues)) <= 1e-12

    @pytest.mark.parametrize("p", [0.13, 0.5, 0.9])
    def test_discordant_probe_eigenvalues(self, p):
        # Solved symbolically: eigenvalues +-2p, each twice; cross-checked
        # against Tr[rho L^2] = 4 p^2.
        rho = discordant_probe(p)
        ham = setting_hamiltonian(3)
        decomposition = sld(rho, ham, math.pi / 4)
        assert_allclose(
            np.sort(decomposition.eigenvalues),
            [-2 * p, -2 * p, 2 * p, 2 * p],
            atol=1e-10,
        )
        encoded = evolve(rho, ham, math.pi / 4)
        operator = decomposition.operator()
        trace = np.trace(encoded.matrix @ operator @ operator).real
        assert trace == pytest.approx(4 * p**2, abs=1e-10)

    def test_defining_equation_and_moments(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            rho = random_density_matrix((2, 2), rng, env_dim=int(rng.integers(1, 5)))
            n = rng.standard_normal(3)
            ham = LocalHamiltonian.from_bloch(n / np.linalg.norm(n))
            phi0 = rng.uniform(0, math.pi)
            decomposition = sld(rho, ham, phi0)
            encoded = evolve(rho, ham, phi0)
            h_full = tensor(ham.matrix, np.eye(2))
            drho = -1j * (h_full @ encoded.matrix - encoded.matrix @ h_full)
            op = decomposition.operator()
            residual = drho - (encoded.matrix @ op + op @ encoded.matrix) / 2.0
            assert np.linalg.norm(residual, 2) <= 1e-9
            assert abs(np.trace(encoded.matrix @ op).real) <= 1e-9
            assert np.trace(encoded.matrix @ op @ op).real == pytest.approx(
                qfi(rho, ham), abs=1e-9
            )
            assert_allclose(
                dagger(decomposition.eigenbasis) @ decomposition.eigenbasis,
                np.eye(4),
                atol=1e-12,
            )


class TestQuadraticForm:
    def test_maximally_mixed_gives_zero(self):
        assert_allclose(qfi_quadratic_form(MIXED), np.zeros((3, 3)), atol=1e-14)

    def test_werner_form_is_isotropic(self):
        for f in (0.2, 0.5, 0.9):
            expected = 2 * f**2 / (1 + f) * np.eye(3)
            assert_allclose(qfi_quadratic_form(werner_state(f)), expected, atol=1e-12)

    def test_discordant_probe_smallest_eigenvalue(self):
        for p in (0.3, 0.7, 1.0):
            form = qfi_quadratic_form(discordant_probe(p))
            assert np.linalg.eigvalsh(form)[0] == pytest.approx(p**2, abs=1e-12)

    def test_matches_qfi_along_directions(self):
        rng = np.random.default_rng(10)
        rho = random_density_matrix((2, 2), rng)
        form = qfi_quadratic_form(rho)
        for _ in range(10):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            ham = LocalHamiltonian.from_bloch(n)
            assert n @ form @ n == pytest.approx(qfi(rho, ham) / 4.0, abs=1e-12)

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            form = qfi_quadratic_form(random_density_matrix((2, 2), rng))
            assert_allclose(form, form.T, atol=1e-14)
            assert np.linalg.eigvalsh(form)[0] >= -1e-12

    def test_requires_qubit_a(self):
        rho = DensityMatrix.from_matrix(np.eye(6) / 6.0, (3, 2))
        with pytest.raises(SubsystemANotQubitError):
            qfi_quadratic_form(rho)


class TestInterferometricPower:
    def test_classical_probe_vanishes(self):
        for p in (0.0, 0.4, 1.0):
            assert interferometric_power(classical_probe(p)) <= 1e-10

    def test_bell_state_reaches_one(self):
        assert interferometric_power(werner_state(1.0)) == pytest.approx(1.0)

    def test_separable_state_reaches_half(self):
        value = interferometric_power(separable_discordant_state())
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_basis_independence_under_degenerate_remix(self):
        rng = np.random.default_rng(12)
        for f in (0.3, 0.6):
            rho = werner_state(f)
            remixed = remix_degenerate_eigenspaces(rho, rng)
            assert interferometric_power(remixed) == pytest.approx(
                interferometric_power(rho), abs=1e-10
            )

    def test_faithfulness_on_classical_states(self, d_b=2, seed=13):
        result = check_faithfulness(np.random.default_rng(seed), 10, 1e-9, d_b)
        assert result.passed, result.line()

    @pytest.mark.parametrize("d_b", [3, 4])
    def test_faithfulness_on_classical_states_qudit(self, d_b):
        self.test_faithfulness_on_classical_states(d_b, seed=113 + d_b)

    @pytest.mark.parametrize("d_b", [2, 3, 4])
    def test_local_unitary_invariance_and_channel_monotonicity(self, d_b):
        rng = np.random.default_rng(120 + d_b)
        for _ in range(10):
            rho = random_density_matrix((2, d_b), rng)
            u = tensor(haar_unitary(2, rng), haar_unitary(d_b, rng))
            rotated = DensityMatrix.from_matrix(u @ rho.matrix @ dagger(u), rho.dims)
            # Kraus operators K_j = (I x <j|) V of a random isometry V on B.
            n_kraus = int(rng.integers(1, 4))
            isometry = haar_unitary(d_b * n_kraus, rng)[:, :d_b]
            kraus = [isometry[j * d_b : (j + 1) * d_b] for j in range(n_kraus)]
            degraded = apply_channel_b(rho, kraus)
            for measure in (interferometric_power, local_quantum_uncertainty):
                assert measure(rotated) == pytest.approx(measure(rho), abs=1e-9)
                assert measure(degraded) <= measure(rho) + 1e-9

    def test_positive_on_random_full_rank_states(self):
        result = check_faithfulness(np.random.default_rng(14), 20, 1e-9)
        assert result.passed, result.line()


class TestGridSearch:
    def test_discordant_probe_equator(self):
        value, direction = ip_grid_search(discordant_probe(0.8), 180, 360)
        assert value == pytest.approx(0.64, abs=1e-3)
        theta = math.acos(np.clip(direction[2], -1, 1))
        assert abs(theta - math.pi / 2) <= 0.02

    def test_classical_probe_worst_direction(self):
        value, direction = ip_grid_search(classical_probe(0.8), 180, 360)
        assert value <= 1e-4
        assert abs(abs(direction[0]) - 1.0) <= 1e-3

    def test_maximally_mixed_is_flat_zero(self):
        value, _ = ip_grid_search(MIXED, 64, 64)
        assert value <= 1e-14
        _, _, grid = qfi_sphere_grid(MIXED, 64, 64)
        assert np.max(np.abs(grid)) <= 1e-14

    def test_never_below_closed_form(self, d_b=2, seed=15):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            rho = random_density_matrix(
                (2, d_b), rng, env_dim=int(rng.integers(1, 2 * d_b + 1))
            )
            value, direction = ip_grid_search(rho, 64, 128)
            closed = interferometric_power(rho)
            assert value >= closed - 1e-12
            assert qfi(rho, LocalHamiltonian.from_bloch(direction)) / 4 == (
                pytest.approx(value, abs=1e-12)
            )

    @pytest.mark.parametrize("d_b", [3, 4])
    def test_never_below_closed_form_qudit(self, d_b):
        self.test_never_below_closed_form(d_b, seed=115 + d_b)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError, match="64"):
            ip_grid_search(MIXED, 32, 128)


class TestBellDiagonal:
    def test_origin_is_zero(self):
        assert ip_bell_diagonal(0.0, 0.0, 0.0) == pytest.approx(0.0)

    def test_werner_triple(self):
        for f in (0.1, 0.5, 0.9):
            assert ip_bell_diagonal(f, -f, f) == pytest.approx(
                2 * f**2 / (1 + f), abs=1e-12
            )

    def test_cross_check_against_spectral_route(self):
        from ipower.probes import bell_diagonal_state

        triple = (0.5, 0.3, 0.1)
        direct = ip_bell_diagonal(*triple)
        spectral = interferometric_power(bell_diagonal_state(*triple))
        assert direct == pytest.approx(spectral, abs=1e-10)

    def test_degenerate_denominator_falls_back(self):
        # (1, -1, 1) is the pure Bell state: the closed denominator vanishes.
        assert ip_bell_diagonal(1.0, -1.0, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_invalid_triple_rejected(self):
        with pytest.raises(InvalidCorrelationTripleError):
            ip_bell_diagonal(1.0, 1.0, 1.0)
        for triple in ((math.nan, 0.1, 0.2), (0.1, math.inf, 0.2), (0.1, 0.2, -math.inf)):
            with pytest.raises(InvalidCorrelationTripleError):
                ip_bell_diagonal(*triple)


class TestSkewInformation:
    def test_pure_state_saturates_qfi_quarter(self):
        # Square roots of the near-zero eigenvalues of a numerically pure
        # state carry ~1e-8 noise, so saturation holds at the pure-state
        # tolerance rather than machine precision.
        rng = np.random.default_rng(16)
        for _ in range(10):
            rho = random_pure_density_matrix((2, 2), rng)
            n = rng.standard_normal(3)
            ham = LocalHamiltonian.from_bloch(n / np.linalg.norm(n))
            assert skew_information(rho, ham) == pytest.approx(
                qfi(rho, ham) / 4.0, abs=1e-6
            )

    def test_commuting_state_gives_zero(self):
        rho = DensityMatrix.from_matrix(np.diag([0.4, 0.3, 0.2, 0.1]), (2, 2))
        assert skew_information(rho, LocalHamiltonian.from_matrix(SIGMA_Z)) <= 1e-14

    def test_discordant_probe_value_bounded(self):
        rho = discordant_probe(0.5)
        ham = LocalHamiltonian.from_matrix(SIGMA_X)
        value = skew_information(rho, ham)
        assert 0.0 < value <= 0.25 + 1e-12
        assert qfi(rho, ham) / 4.0 == pytest.approx(0.25)

    def test_bounded_by_qfi_quarter(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            rho = random_density_matrix((2, 2), rng, env_dim=int(rng.integers(1, 5)))
            n = rng.standard_normal(3)
            ham = LocalHamiltonian.from_bloch(n / np.linalg.norm(n))
            assert skew_information(rho, ham) <= qfi(rho, ham) / 4.0 + 1e-9


class TestLocalQuantumUncertainty:
    def test_classical_probe_vanishes(self):
        for p in (0.2, 0.7, 1.0):
            assert local_quantum_uncertainty(classical_probe(p)) <= 1e-10

    def test_bell_state_reaches_one(self):
        from ipower.probes import bell_probe

        rho = bell_probe()
        assert local_quantum_uncertainty(rho) == pytest.approx(1.0, abs=1e-10)
        grid_value, _ = skew_grid_search(rho)
        assert grid_value == pytest.approx(1.0, abs=1e-8)

    def test_bounded_by_interferometric_power(self):
        for p in (0.2, 0.5, 0.9):
            rho = discordant_probe(p)
            assert local_quantum_uncertainty(rho) <= (
                interferometric_power(rho) + 1e-10
            )

    def test_matches_dense_grid_search(self, d_b=2, seed=18):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            rho = random_density_matrix(
                (2, d_b), rng, env_dim=int(rng.integers(1, 2 * d_b + 1))
            )
            closed = local_quantum_uncertainty(rho)
            grid_value, _ = skew_grid_search(rho)
            assert grid_value == pytest.approx(closed, abs=1e-6)
            assert grid_value >= closed - 1e-12

    @pytest.mark.parametrize("d_b", [3, 4])
    def test_matches_dense_grid_search_qudit(self, d_b):
        self.test_matches_dense_grid_search(d_b, seed=118 + d_b)

    def test_hierarchy_on_random_states(self, d_b=2, seed=19):
        result = check_hierarchy(np.random.default_rng(seed), 50, 1e-10, d_b)
        assert result.passed, result.line()

    @pytest.mark.parametrize("d_b", [3, 4])
    def test_hierarchy_on_random_states_qudit(self, d_b):
        self.test_hierarchy_on_random_states(d_b, seed=119 + d_b)

    @pytest.mark.parametrize("d_b", [2, 3, 4])
    def test_matches_square_root_reference(self, d_b):
        # LQU = 1 - lambda_max(W), W_mn = Tr[sqrt(rho) s_m sqrt(rho) s_n] with
        # s_m = sigma_m x I and sqrt(rho) from its own eigendecomposition.
        # On rank-deficient states the square roots of eigenvalue dust
        # (~1e-17) enter at ~1e-8, hence the looser bound there.
        rng = np.random.default_rng(130 + d_b)
        paulis = [tensor(s, np.eye(d_b)) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
        for env_dim, bound in ((None, 1e-12), (1, 1e-7), (d_b, 1e-7)):
            for _ in range(5):
                rho = random_density_matrix((2, d_b), rng, env_dim=env_dim)
                vals, vecs = np.linalg.eigh(rho.matrix)
                root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ dagger(vecs)
                assert_allclose(root @ root, rho.matrix, atol=1e-12)
                w = np.array(
                    [[np.trace(root @ a @ root @ b).real for b in paulis] for a in paulis]
                )
                reference = 1.0 - np.linalg.eigvalsh(w)[-1]
                assert local_quantum_uncertainty(rho) == pytest.approx(
                    reference, abs=bound
                )


class TestScalingIdentity:
    def test_identity_shift_is_unobservable(self):
        rho = discordant_probe(0.5)
        ham = setting_hamiltonian(1)
        assert qfi_scaling_check(rho, ham, 1.0, 2.345)

    def test_quadratic_scaling(self):
        rho = discordant_probe(0.5)
        ham = setting_hamiltonian(1)
        assert qfi_scaling_check(rho, ham, 2.0, 0.0)
        doubled = LocalHamiltonian.from_matrix(2.0 * ham.matrix)
        assert qfi(rho, doubled) == pytest.approx(4.0 * qfi(rho, ham), abs=1e-12)

    def test_zero_scale_kills_information(self):
        rho = discordant_probe(0.5)
        ham = setting_hamiltonian(1)
        assert qfi_scaling_check(rho, ham, 0.0, 1.0)
        constant = LocalHamiltonian.from_matrix(np.eye(2))
        assert qfi(rho, constant) <= 1e-14


class TestLocalVarianceSearch:
    def test_pure_state_reduction(self, d_b=2, seed=20):
        result = check_pure_state_reduction(np.random.default_rng(seed), 10, 1e-6, d_b)
        assert result.passed, result.line()

    @pytest.mark.parametrize("d_b", [3, 4])
    def test_pure_state_reduction_qudit(self, d_b):
        self.test_pure_state_reduction(d_b, seed=120 + d_b)

    def test_requires_qubit_a(self):
        rho = DensityMatrix.from_matrix(np.eye(6) / 6.0, (3, 2))
        with pytest.raises(SubsystemANotQubitError):
            min_local_variance(rho)
