import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ipower.estimation as estimation_mod
from ipower.correlations import interferometric_power, sld
from ipower.errors import (
    BasisMismatchError,
    NotIdentifiableError,
    SubsystemANotQubitError,
    ZeroInformationError,
)
from ipower.estimation import (
    SWEEP_COLUMNS,
    EstimationRun,
    NoiseSpec,
    adaptive_localize,
    estimator_statistics,
    least_squares_estimate,
    measure_populations,
    run_experiment,
    run_sweep,
    sweep_csv_text,
    sweep_json_text,
    sweep_rows,
    theory_populations,
)
from ipower.linalg import SIGMA_X, SIGMA_Z, dagger, tensor
from ipower.probes import (
    ProbeFamily,
    classical_probe,
    discordant_probe,
    setting_hamiltonian,
)
from ipower.states import DensityMatrix, LocalHamiltonian
from ipower.verify import check_adaptive_convergence, check_guaranteed_precision

PI4 = math.pi / 4


def dense_populations(rho, ham, basis, phi):
    """Independent dense-matrix evaluation of <lambda_j|rho^phi|lambda_j>."""
    u = tensor(ham.phase_unitary(phi), np.eye(rho.d_b))
    encoded = u @ rho.matrix @ dagger(u)
    return np.array(
        [
            (basis.eigenbasis[:, j].conj() @ encoded @ basis.eigenbasis[:, j]).real
            for j in range(basis.dim)
        ]
    )


class TestMeasurePopulations:
    def test_zero_phase_gives_state_populations(self):
        rho = discordant_probe(0.6)
        ham = setting_hamiltonian(1)
        reference = sld(rho, ham, PI4)
        d = measure_populations(rho, ham, 0.0, reference)
        assert d.sum() == pytest.approx(1.0, abs=1e-12)
        assert_allclose(d, dense_populations(rho, ham, reference, 0.0), atol=1e-12)

    def test_classical_worst_setting_is_phase_blind(self):
        rho = classical_probe(0.8)
        ham = setting_hamiltonian(3)
        reference = sld(rho, ham, PI4)
        base = measure_populations(rho, ham, 0.0, reference)
        for phi in (0.3, 1.0, 1.5):
            assert_allclose(
                measure_populations(rho, ham, phi, reference), base, atol=1e-12
            )

    def test_matches_dense_oracle(self):
        rho = discordant_probe(0.5)
        ham = setting_hamiltonian(1)
        reference = sld(rho, ham, PI4)
        assert_allclose(
            measure_populations(rho, ham, PI4, reference),
            dense_populations(rho, ham, reference, PI4),
            atol=1e-12,
        )

    def test_basis_mismatch_rejected(self):
        rho = discordant_probe(0.5)
        ham = setting_hamiltonian(1)
        small = sld(
            discordant_probe(0.5), ham, 0.0
        )
        wrong = type(small)(
            eigenvalues=small.eigenvalues[:2],
            eigenbasis=small.eigenbasis[:2, :2],
            reference_phase=0.0,
            setting=ham,
        )
        with pytest.raises(BasisMismatchError):
            measure_populations(rho, ham, 0.0, wrong)

    def test_noise_is_seeded_and_normalized(self):
        rho = discordant_probe(0.5)
        ham = setting_hamiltonian(1)
        reference = sld(rho, ham, PI4)
        noisy1 = measure_populations(rho, ham, PI4, reference, NoiseSpec(0.05, 42))
        noisy2 = measure_populations(rho, ham, PI4, reference, NoiseSpec(0.05, 42))
        assert_allclose(noisy1, noisy2)
        assert noisy1.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(noisy1 >= 0.0) and np.all(noisy1 <= 1.0)
        exact = measure_populations(rho, ham, PI4, reference)
        assert np.max(np.abs(noisy1 - exact)) > 0.0


class TestLeastSquares:
    def test_recovers_true_phase(self):
        rho = discordant_probe(0.5)
        ham = setting_hamiltonian(1)
        reference = sld(rho, ham, PI4)
        d = measure_populations(rho, ham, PI4, reference)
        fit = least_squares_estimate(d, rho, ham, reference)
        assert not fit.failed
        assert fit.phi_hat == pytest.approx(PI4, abs=1e-6)
        assert fit.residual <= 1e-15

    def test_flat_objective_flags_failure(self):
        rho = classical_probe(0.8)
        ham = setting_hamiltonian(3)
        reference = sld(rho, ham, PI4)
        d = measure_populations(rho, ham, PI4, reference)
        fit = least_squares_estimate(d, rho, ham, reference)
        assert fit.failed
        assert math.isnan(fit.phi_hat)

    def test_zero_phase_identified(self):
        rho = discordant_probe(0.7)
        ham = setting_hamiltonian(2)
        reference = sld(rho, ham, 0.0)
        d = measure_populations(rho, ham, 0.0, reference)
        fit = least_squares_estimate(d, rho, ham, reference)
        assert not fit.failed
        assert fit.phi_hat == pytest.approx(0.0, abs=1e-6)


class TestClosedFormFit:
    """Guards of the closed-form least-squares fit."""

    @pytest.mark.parametrize("label", ["Q", "C"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_never_above_dense_grid_minimum(self, label, k):
        ham = setting_hamiltonian(k)
        grid = np.linspace(0.0, math.pi / 2.0, 501)  # the window [0, pi/omega]
        for p in (0.13, 0.6, 1.0):
            rho = discordant_probe(p) if label == "Q" else classical_probe(p)
            for sigma, seed in ((0.0, None), (0.05, 3), (0.2, 4)):
                for phi0 in (0.0, PI4):
                    basis = sld(rho, ham, phi0)
                    d = measure_populations(
                        rho, ham, 1.0, basis, NoiseSpec(sigma, seed)
                    )

                    def objective(phi):
                        delta = theory_populations(rho, ham, basis, phi) - d
                        return float(delta @ delta)

                    fit = least_squares_estimate(d, rho, ham, basis)
                    if fit.failed:
                        continue
                    assert 0.0 <= fit.phi_hat <= math.pi / 2.0
                    assert fit.residual <= min(map(objective, grid)) + 1e-15
                    assert fit.residual == pytest.approx(
                        objective(fit.phi_hat), abs=1e-12
                    )

    def test_three_model_evaluations_per_fit(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[-1])
            return theory_populations(*args)

        monkeypatch.setattr(estimation_mod, "theory_populations", counted)
        rho = discordant_probe(0.7)
        ham = setting_hamiltonian(2)
        basis = sld(rho, ham, 0.4)
        d = measure_populations(rho, ham, 0.4, basis)
        calls.clear()
        least_squares_estimate(d, rho, ham, basis)
        assert len(calls) == 3

    def test_segment_landscape_from_zero_basis(self):
        # Measured in the SLD basis at 0, the populations trace a segment and
        # pi/4 sits at its end: the quartic has a triple root there.
        rho = discordant_probe(0.13)
        ham = setting_hamiltonian(1)
        basis = sld(rho, ham, 0.0)
        d = measure_populations(rho, ham, PI4, basis)
        fit = least_squares_estimate(d, rho, ham, basis)
        assert not fit.failed
        assert fit.phi_hat == pytest.approx(PI4, abs=1e-9)

    @pytest.mark.parametrize("phi", [0.3, 1.2, 2.0])
    def test_generator_with_general_spectrum(self, phi):
        ham = LocalHamiltonian.from_matrix(
            0.5 * SIGMA_Z + 0.3 * SIGMA_X + 0.2 * np.eye(2)
        )
        omega = ham.spectrum[1] - ham.spectrum[0]
        assert omega == pytest.approx(2.0 * math.sqrt(0.34), abs=1e-12)
        assert phi < math.pi / omega
        rho = discordant_probe(0.8)
        basis = sld(rho, ham, phi)
        d = measure_populations(rho, ham, phi, basis)
        fit = least_squares_estimate(d, rho, ham, basis)
        assert not fit.failed
        assert fit.phi_hat == pytest.approx(phi, abs=1e-9)

    def test_degenerate_generator_is_flat(self):
        rho = discordant_probe(0.5)
        ham = LocalHamiltonian.from_matrix(np.eye(2))
        basis = sld(rho, setting_hamiltonian(1), 0.0)
        d = measure_populations(rho, ham, 0.0, basis)
        fit = least_squares_estimate(d, rho, ham, basis)
        assert fit.failed
        assert math.isnan(fit.phi_hat)

    def test_qutrit_generator_rejected(self):
        rho = DensityMatrix.from_matrix(np.eye(6) / 6.0, (3, 2))
        ham = LocalHamiltonian.from_matrix(np.diag([0.0, 1.0, 2.0]))
        basis = sld(rho, ham, 0.0)
        with pytest.raises(SubsystemANotQubitError):
            least_squares_estimate(np.full(6, 1.0 / 6.0), rho, ham, basis)


class TestPhaseWindow:
    @pytest.mark.parametrize("phi", [2.0, math.pi / 2.0, -0.1])
    def test_run_outside_window_raises(self, phi):
        # Exact data at 2.0 and at 2.0 - pi/2 coincide: the fit would return
        # 0.4292 without any failure flag.
        with pytest.raises(NotIdentifiableError, match="window"):
            run_experiment(ProbeFamily("Q", (0.8,)), 1, phi)

    def test_adaptive_outside_window_raises(self):
        with pytest.raises(NotIdentifiableError, match="window"):
            adaptive_localize(discordant_probe(0.5), setting_hamiltonian(1), 2.0)

    @pytest.mark.parametrize("phi", [0.0, math.pi / 8, 3 * math.pi / 8, 1.57])
    def test_phases_inside_window_recovered(self, phi):
        run = run_experiment(ProbeFamily("Q", (0.8,)), 1, phi)
        assert not run.failed
        assert run.phi_hat_mean == pytest.approx(phi, abs=1e-9)


class TestEstimatorStatistics:
    def test_bell_probe_reference_variance(self):
        # F = 4 at p = 1 under setting 1, so Var = 1/(nu F) = 2.5e-16.
        run = run_experiment(ProbeFamily("Q", (1.0,)), 1, PI4, nu=10**15)
        assert run.f_exp == pytest.approx(4.0, abs=1e-12)
        assert run.phi_hat_var == pytest.approx(2.5e-16, rel=1e-9)

    def test_zero_information_raises(self):
        with pytest.raises(ZeroInformationError):
            estimator_statistics([0.25] * 4, [0.0] * 4, 0.0, 10**15)

    def test_variance_scales_inversely_with_ensemble(self):
        d = [0.4, 0.3, 0.2, 0.1]
        l = [-2.0, -1.0, 1.0, 2.0]
        f = float(np.sum(np.array(l) ** 2 * np.array(d)))
        assert estimator_statistics(d, l, f, 2 * 10**6) == pytest.approx(
            estimator_statistics(d, l, f, 10**6) / 2.0
        )


class TestAdaptive:
    def test_rapid_convergence(self):
        rho = discordant_probe(0.13)
        ham = setting_hamiltonian(1)
        trials, converged = adaptive_localize(rho, ham, PI4, max_iters=5)
        assert converged
        assert len(trials) <= 5
        assert trials[0] == 0.0
        assert trials[-1] == pytest.approx(PI4, abs=1e-6)

    def test_starting_at_truth(self):
        rho = discordant_probe(0.5)
        ham = setting_hamiltonian(1)
        trials, converged = adaptive_localize(rho, ham, 0.0)
        assert converged
        assert trials == [0.0]

    def test_zero_qfi_not_identifiable(self):
        with pytest.raises(NotIdentifiableError):
            adaptive_localize(classical_probe(0.5), setting_hamiltonian(3), PI4)


class TestRunExperiment:
    def test_exact_mode_invariants(self):
        run = run_experiment(ProbeFamily("Q", (0.5,)), 2, PI4)
        assert sum(run.d_meas) == pytest.approx(1.0, abs=1e-9)
        assert run.f_exp == pytest.approx(
            sum(l * l * d for l, d in zip(run.l_values, run.d_meas)), abs=1e-9
        )
        assert run.f_exp == pytest.approx(1.0, abs=1e-12)  # 4 p^2 at p = 0.5
        assert run.nu * run.phi_hat_var * run.f_exp == pytest.approx(1.0, abs=1e-9)
        assert run.phi_hat_mean == pytest.approx(PI4, abs=1e-6)
        assert not run.failed

    def test_qfi_saturates_power_for_worst_settings(self):
        for p in (0.3, 0.6, 0.9):
            rho = discordant_probe(p)
            power = interferometric_power(rho)
            for k in (2, 3):
                run = run_experiment(ProbeFamily("Q", (p,)), k, PI4)
                assert run.f_exp / 4.0 == pytest.approx(power, abs=1e-9)

    def test_run_carries_interferometric_power(self):
        run = run_experiment(ProbeFamily("Q", (0.6,)), 2, PI4)
        assert run.ip == interferometric_power(discordant_probe(0.6))

    def test_pathological_setting_fails(self):
        run = run_experiment(ProbeFamily("C", (0.8,)), 3, PI4)
        assert run.failed
        assert run.f_exp <= 1e-12
        assert run.phi_hat_mean is None
        assert run.phi_hat_var is None

    def test_noisy_mode_stays_in_band(self):
        run = run_experiment(
            ProbeFamily("Q", (0.8,)), 1, PI4, noise=NoiseSpec(0.05, 11)
        )
        assert not run.failed
        assert run.seed == 11
        product = run.nu * run.phi_hat_var * run.f_exp
        assert 0.9 <= product <= 1.1


@pytest.fixture(scope="module")
def runs():
    return run_sweep(("Q", "C"), (1, 3), [0.0, 0.5, 1.0], PI4)


class TestSweepSerialization:
    def test_rows_sorted_and_complete(self, runs):
        rows = sweep_rows(runs)
        keys = [(r["s"], r["k"], r["p"]) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 12

    def test_csv_schema(self, runs):
        text = sweep_csv_text(runs)
        header = text.splitlines()[0]
        assert header == ",".join(SWEEP_COLUMNS)
        assert header == "s,k,p,f_exp_over_4,ip,var,nu_var_product,phi_hat,failed"
        for line in text.splitlines()[1:]:
            assert len(line.split(",")) == len(SWEEP_COLUMNS)

    def test_failed_rows_use_nan(self, runs):
        lines = [l for l in sweep_csv_text(runs).splitlines() if l.startswith("C,3")]
        assert lines and all(line.endswith(",true") for line in lines)
        assert all("nan" in line for line in lines)

    def test_json_records_carry_all_fields(self, runs):
        records = json.loads(sweep_json_text(runs))
        assert len(records) == 12
        expected = {
            "probe_label", "p", "setting_k", "phi0", "nu", "d_meas", "l_values",
            "phi_hat_mean", "phi_hat_var", "f_exp", "failed", "seed",
        }
        assert set(records[0]) == expected

    def test_seeded_noise_sweep_is_reproducible(self):
        a = run_sweep(("Q",), (1,), [0.5, 0.9], PI4, sigma=0.05, seed=3)
        b = run_sweep(("Q",), (1,), [0.5, 0.9], PI4, sigma=0.05, seed=3)
        assert a == b
        c = run_sweep(("Q",), (1,), [0.5, 0.9], PI4, sigma=0.05, seed=4)
        assert a != c

    def test_run_record_round_trip(self):
        run = run_experiment(ProbeFamily("Q", (0.5,)), 1, PI4)
        record = run.to_json_dict()
        clone = EstimationRun(
            probe_label=record["probe_label"],
            p=record["p"],
            setting_k=record["setting_k"],
            phi0=record["phi0"],
            nu=record["nu"],
            d_meas=tuple(record["d_meas"]),
            l_values=tuple(record["l_values"]),
            phi_hat_mean=record["phi_hat_mean"],
            phi_hat_var=record["phi_hat_var"],
            f_exp=record["f_exp"],
            failed=record["failed"],
            seed=record["seed"],
        )
        assert clone.setting_k == run.setting_k
        assert clone.phi_hat_mean == pytest.approx(run.phi_hat_mean, abs=1e-11)


def test_power_lower_bounds_every_direction():
    # The worst-case value certifies the QFI of every concrete generator.
    result = check_guaranteed_precision(1e-9, (0.2, 0.6, 1.0))
    assert result.passed, result.line()


def test_adaptive_converges_for_random_informative_pairs():
    result = check_adaptive_convergence(np.random.default_rng(21), 5, 0.5)
    assert result.passed, result.line()


def test_theory_populations_match_reference_at_reference_phase():
    rho = discordant_probe(0.5)
    ham = setting_hamiltonian(1)
    reference = sld(rho, ham, PI4)
    model = theory_populations(rho, ham, reference, PI4)
    measured = measure_populations(rho, ham, PI4, reference)
    assert_allclose(model, measured, atol=1e-15)
