import numpy as np
import pytest
from numpy.testing import assert_allclose

from ipower.correlations import qfi_sphere_grid
from ipower.errors import (
    BadSettingError,
    NotPositiveSemidefiniteError,
    ParameterOutOfRangeError,
)
from ipower.probes import (
    ProbeFamily,
    bell_probe,
    classical_probe,
    discordant_probe,
    flip_angle_grid,
    make_probe,
    predicted_qfi,
    separable_discordant_state,
    setting_hamiltonian,
    werner_state,
)
from ipower.verify import check_probe_regression

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestFamilyConstructors:
    def test_discordant_probe_at_zero_is_maximally_mixed(self):
        assert_allclose(discordant_probe(0.0).matrix, np.eye(4) / 4.0, atol=1e-15)

    def test_discordant_probe_at_one_is_bell_state(self):
        expected = np.array(
            [[2, 0, 0, 2], [0, 0, 0, 0], [0, 0, 0, 0], [2, 0, 0, 2]]
        ) / 4.0
        assert_allclose(discordant_probe(1.0).matrix, expected, atol=1e-15)
        assert_allclose(discordant_probe(1.0).matrix, bell_probe().matrix, atol=1e-15)

    def test_classical_probe_at_one_is_plus_plus(self):
        # p = 1 in the classical family gives the all-ones matrix over 4,
        # the projector on |+>|+>.
        assert_allclose(classical_probe(1.0).matrix, np.ones((4, 4)) / 4.0, atol=1e-15)

    def test_purity_matches_between_families(self):
        for p in flip_angle_grid():
            target = (1 + p * p) ** 2 / 4.0
            assert discordant_probe(p).purity() == pytest.approx(target, abs=1e-12)
            assert classical_probe(p).purity() == pytest.approx(target, abs=1e-12)

    def test_parameter_range_enforced(self):
        with pytest.raises(ParameterOutOfRangeError):
            discordant_probe(1.2)
        with pytest.raises(ParameterOutOfRangeError):
            werner_state(-0.1)

    def test_bell_diagonal_outside_tetrahedron_rejected(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            make_probe(ProbeFamily("belldiag", (0.9, 0.9, 0.9)))

    def test_make_probe_dispatch(self):
        assert_allclose(
            make_probe(ProbeFamily("Q", (0.5,))).matrix,
            discordant_probe(0.5).matrix,
        )
        assert_allclose(
            make_probe(ProbeFamily("sep")).matrix,
            separable_discordant_state().matrix,
        )
        with pytest.raises(ParameterOutOfRangeError):
            ProbeFamily("nope", ())
        with pytest.raises(ParameterOutOfRangeError):
            make_probe(ProbeFamily("werner", ()))


class TestSettings:
    def test_setting_matrices(self):
        assert_allclose(setting_hamiltonian(1).matrix, [[1, 0], [0, -1]])
        assert_allclose(
            setting_hamiltonian(2).matrix,
            np.array([[0, INV_SQRT2 * (1 - 1j)], [INV_SQRT2 * (1 + 1j), 0]]),
            atol=1e-15,
        )
        assert_allclose(setting_hamiltonian(3).matrix, [[0, 1], [1, 0]])

    def test_spectra_and_bloch_vectors(self):
        expected_bloch = {
            1: [0, 0, 1],
            2: [INV_SQRT2, INV_SQRT2, 0],
            3: [1, 0, 0],
        }
        for k in (1, 2, 3):
            ham = setting_hamiltonian(k)
            assert_allclose(ham.spectrum, [-1, 1], atol=1e-12)
            assert_allclose(ham.bloch_vector, expected_bloch[k], atol=1e-12)

    def test_bad_setting(self):
        with pytest.raises(BadSettingError):
            setting_hamiltonian(4)


class TestPredictedQfi:
    def test_analytic_values(self):
        assert predicted_qfi("Q", 1.0, 1) == pytest.approx(4.0)
        for p in (0.0, 0.3, 0.9):
            assert predicted_qfi("C", p, 3) == 0.0
        assert predicted_qfi("Q", 0.5, 2) == pytest.approx(1.0)

    def test_bad_inputs(self):
        with pytest.raises(BadSettingError):
            predicted_qfi("Q", 0.5, 0)
        with pytest.raises(ParameterOutOfRangeError):
            predicted_qfi("werner", 0.5, 1)

    # One run of the grid regression (purity, QFI per setting, power) backs both.
    @pytest.fixture(scope="class")
    def regression(self):
        return check_probe_regression(1e-9)

    def test_matches_computed_qfi_on_grid(self, regression):
        assert regression.passed, regression.line()

    def test_interferometric_power_identities_on_grid(self, regression):
        assert regression.passed, regression.line()


class TestFlipAngleGrid:
    def test_default_grid(self):
        grid = flip_angle_grid()
        assert len(grid) == 37
        assert grid[0] == pytest.approx(1.0)
        assert grid[-1] == pytest.approx(0.0, abs=1e-12)
        assert grid[1] == pytest.approx(np.cos(np.deg2rad(2.5)))

    def test_rejects_bad_steps(self):
        with pytest.raises(ParameterOutOfRangeError):
            flip_angle_grid(step_deg=0.0)
        with pytest.raises(ParameterOutOfRangeError):
            flip_angle_grid(start_deg=10, stop_deg=0)


class TestSettingLandscape:
    def test_best_and_worst_directions_at_p08(self):
        thetas, phis, grid_q = qfi_sphere_grid(discordant_probe(0.8), 181, 360)
        _, _, grid_c = qfi_sphere_grid(classical_probe(0.8), 181, 360)

        # Both families peak at the pole.
        assert grid_q.max() <= grid_q[0, 0] + 1e-12
        assert grid_c.max() <= grid_c[0, 0] + 1e-12

        # Worst case sits on the equator; for the classical family it pins
        # the azimuth to 0 mod pi.
        q_min = np.unravel_index(np.argmin(grid_q), grid_q.shape)
        c_min = np.unravel_index(np.argmin(grid_c), grid_c.shape)
        assert abs(thetas[q_min[0]] - np.pi / 2) <= 0.02
        assert abs(thetas[c_min[0]] - np.pi / 2) <= 0.02
        azimuth = phis[c_min[1]] % np.pi
        assert min(azimuth, np.pi - azimuth) <= 0.02
