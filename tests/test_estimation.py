import dataclasses
import json
import math
import re
from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ipower.correlations as correlations_mod
import ipower.estimation as estimation_mod
import ipower.linalg as linalg_mod
import ipower.states as states_mod
from ipower.correlations import interferometric_power, sld
from ipower.errors import (
    BadSettingError,
    BasisMismatchError,
    NotIdentifiableError,
    NotPositiveSemidefiniteError,
    ParameterOutOfRangeError,
    PhaseOutOfWindowError,
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
    population_model,
    run_experiment,
    run_sweep,
    sweep_csv_text,
    sweep_json_text,
    sweep_rows,
)
from ipower.linalg import SIGMA_X, SIGMA_Z, dagger, degenerate_clusters, tensor
from ipower.probes import (
    SWEPT_LABELS,
    ProbeFamily,
    classical_probe,
    discordant_probe,
    flip_angle_grid,
    make_probe,
    setting_hamiltonian,
)
from ipower.sampling import haar_unitary, random_density_matrix
from ipower.states import DensityMatrix, LocalHamiltonian

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
        d = measure_populations(population_model(rho, ham, reference), 0.0)
        assert d.sum() == pytest.approx(1.0, abs=1e-12)
        assert_allclose(d, dense_populations(rho, ham, reference, 0.0), atol=1e-12)

    def test_classical_worst_setting_is_phase_blind(self):
        rho = classical_probe(0.8)
        ham = setting_hamiltonian(3)
        model = population_model(rho, ham, sld(rho, ham, PI4))
        base = measure_populations(model, 0.0)
        for phi in (0.3, 1.0, 1.5):
            assert_allclose(measure_populations(model, phi), base, atol=1e-12)

    @pytest.mark.parametrize(
        "generator, d_b",
        [("setting", 2), ("bloch", 2), ("bloch", 3), ("bloch", 4), ("shifted", 2)],
    )
    def test_matches_dense_oracle(self, generator, d_b):
        # The closed-form series against the literal U rho U† read in the basis:
        # the discordant probe in its SLD basis under setting 1, then states of
        # every rank in Haar-rotated bases at random phases.
        if generator == "setting":
            rho, ham = discordant_probe(0.5), setting_hamiltonian(1)
            cases = [(rho, ham, sld(rho, ham, PI4), PI4)]
        else:
            rng = np.random.default_rng([d_b, generator == "shifted"])
            cases = []
            for rank in range(1, 2 * d_b + 1):
                rho = random_density_matrix((2, d_b), rng, env_dim=rank)
                if generator == "shifted":
                    ham = LocalHamiltonian.from_matrix(
                        0.5 * SIGMA_Z + 0.3 * SIGMA_X + 0.2 * np.eye(2)
                    )
                else:
                    n = rng.standard_normal(3)
                    ham = LocalHamiltonian.from_bloch(n / np.linalg.norm(n))
                basis = dataclasses.replace(
                    sld(rho, ham, 0.0), eigenbasis=haar_unitary(rho.dim, rng)
                )
                cases.append((rho, ham, basis, rng.uniform(-4.0, 4.0)))
        for rho, ham, basis, phi in cases:
            dense = dense_populations(rho, ham, basis, phi)
            model = population_model(rho, ham, basis)
            assert_allclose(measure_populations(model, phi), dense, atol=1e-14)
            assert_allclose(model.at(phi), dense, atol=1e-14)

    def test_qutrit_generator_rejected(self):
        # The model reads the two spectral projectors of a qubit generator.
        rho = DensityMatrix.from_matrix(np.eye(6) / 6.0, (3, 2))
        ham = LocalHamiltonian.from_matrix(np.diag([0.0, 1.0, 2.0]))
        with pytest.raises(SubsystemANotQubitError):
            population_model(rho, ham, sld(rho, ham, 0.0))

    def test_reference_populations_independent_of_reference_phase(self):
        # The basis is (U x I) W(0), so exact populations read at the reference
        # phase are those of rho in W(0) for every reference phase.
        worst = 0.0
        for label, k, p in product(("Q", "C", "werner"), (1, 2, 3), flip_angle_grid()):
            rho = make_probe(ProbeFamily(label, (p,)))
            ham = setting_hamiltonian(k)
            base = measure_populations(population_model(rho, ham, sld(rho, ham, 0.0)), 0.0)
            for phi0 in (PI4 / 2, PI4):
                model = population_model(rho, ham, sld(rho, ham, phi0))
                moved = measure_populations(model, phi0)
                worst = max(worst, np.max(np.abs(moved - base)))
        assert worst <= 1e-15

    def test_basis_mismatch_rejected(self):
        rho = discordant_probe(0.5)
        ham = setting_hamiltonian(1)
        full = sld(rho, ham, 0.0)
        wrong = type(full)(
            eigenvalues=full.eigenvalues[:2], eigenbasis=full.eigenbasis[:2, :2]
        )
        with pytest.raises(BasisMismatchError):
            population_model(rho, ham, wrong)
        with pytest.raises(BasisMismatchError):
            least_squares_estimate(np.full(2, 0.5), population_model(rho, ham, full))

    @pytest.mark.parametrize("shape", [(4, 1), (1, 4), (2, 2), (1,), (5,), ()])
    def test_fit_and_statistics_need_1d_inputs_of_matching_length(self, shape):
        # (4, 1) used to raise numpy's TypeError in the fit, (1, 4) and (2, 2) its
        # ValueError, and estimator_statistics broadcast (4,) against (1,) to 0.0.
        rho, ham = discordant_probe(0.5), setting_hamiltonian(1)
        model = population_model(rho, ham, sld(rho, ham, PI4))
        d, bad = measure_populations(model, PI4), np.full(shape, 0.25)
        with pytest.raises(BasisMismatchError):
            least_squares_estimate(bad, model)
        for args in ((bad, np.ones(4)), (d, bad)):
            with pytest.raises(BasisMismatchError):
                estimator_statistics(*args, 2.0, 100)

    def test_noise_is_seeded_and_normalized(self):
        rho = discordant_probe(0.5)
        ham = setting_hamiltonian(1)
        model = population_model(rho, ham, sld(rho, ham, PI4))
        noisy1 = measure_populations(model, PI4, NoiseSpec(0.05, 42))
        noisy2 = measure_populations(model, PI4, NoiseSpec(0.05, 42))
        assert_allclose(noisy1, noisy2)
        assert noisy1.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(noisy1 >= 0.0) and np.all(noisy1 <= 1.0)
        exact = measure_populations(model, PI4)
        assert np.max(np.abs(noisy1 - exact)) > 0.0


class TestNoiseSpec:
    @pytest.mark.parametrize("sigma", [math.inf, math.nan, -0.1])
    @pytest.mark.parametrize("grid", [((), (1,), [0.5]), (("Q",), (), [0.5]), (("Q",), (1,), [])])
    def test_empty_sweep_rejects_bad_sigma(self, sigma, grid):
        # An empty sweep used to return [] without looking at sigma.
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            run_sweep(*grid, PI4, sigma=sigma)

    def test_sigma_is_checked_before_nu(self):
        for grid in (("Q",), (1,), [0.5]), ((), (1,), [0.5]):
            with pytest.raises(ValueError, match="sigma must be finite"):
                run_sweep(*grid, PI4, nu=-1, sigma=math.nan)

    def test_numpy_seed_is_kept_as_a_python_int(self):
        spec = NoiseSpec(0.05, np.int64(7))
        assert spec == NoiseSpec(0.05, 7) and type(spec.seed) is int
        family = ProbeFamily("Q", (0.5,))
        run = run_experiment(family, 1, PI4, noise=spec)
        reference = run_experiment(family, 1, PI4, noise=NoiseSpec(0.05, 7))
        # np.int64(7) used to make json.dumps of the record raise TypeError.
        assert json.dumps(run.to_json_dict()) == json.dumps(reference.to_json_dict())
        assert sweep_json_text([run]) == sweep_json_text([reference])

    def test_exact_mode_drops_the_seed(self):
        assert NoiseSpec(0.0, 3) == NoiseSpec()
        run = run_experiment(ProbeFamily("Q", (0.5,)), 1, PI4, noise=NoiseSpec(0.0, 3))
        assert run.seed is None and run.to_json_dict()["seed"] is None


# Seeds of one, two, three and more 32-bit words, numpy integers among them,
# in mixed order and with repeats.
DRAW_SEEDS = [
    2**64, 0, 1, 2**32 - 1, 2**32, 2**63 - 2, 2**128 + 3, 10**400, np.int64(7),
    np.uint64(2**64 - 1), 1, 2**32, 10**400, 0, np.uint32(9), 2**70,
]


def _noise_model(d_b):
    rho, ham = random_density_matrix((2, d_b), np.random.default_rng(d_b)), setting_hamiltonian(1)
    return population_model(rho, ham, sld(rho, ham, PI4))


class TestNoiseDraws:
    def test_none_seed_draws_fresh_entropy(self):
        model = _noise_model(2)
        first, second = (measure_populations(model, PI4, NoiseSpec(0.05, None)) for _ in range(2))
        assert np.isfinite(first).all() and np.isfinite(second).all()
        assert first.tobytes() != second.tobytes()

    @pytest.mark.parametrize("seed", DRAW_SEEDS)
    @pytest.mark.parametrize("d_b", range(1, 5))
    def test_measurement_draws_the_seeded_stream(self, d_b, seed):
        model = _noise_model(d_b)
        draws = np.random.default_rng(seed).standard_normal(2 * d_b)
        expected = estimation_mod._perturb(model.at(PI4), 0.05, draws)
        assert measure_populations(model, PI4, NoiseSpec(0.05, seed)).tobytes() == expected.tobytes()

    def test_each_batch_run_draws_its_seeded_stream(self):
        families = [ProbeFamily(label, (p,)) for label in ("Q", "C") for p in (0.3, 0.8)]
        runs = [
            (families[i % 4], 1 + i % 3, NoiseSpec(0.05, seed)) for i, seed in enumerate(DRAW_SEEDS)
        ]
        for (family, k, noise), record in zip(runs, estimation_mod.run_batch(runs, PI4)):
            rho, ham = make_probe(family), setting_hamiltonian(k)
            model = population_model(rho, ham, sld(rho, ham, PI4))
            draws = np.random.default_rng(noise.seed).standard_normal(4)
            expected = estimation_mod._perturb(model.at(PI4), 0.05, draws)
            assert np.array(record.d_meas).tobytes() == expected.tobytes()

    def test_noisy_sweep_rows_replay_one_by_one(self):
        grid = (("Q", "C"), (1, 2, 3), flip_angle_grid(0.0, 90.0, 15.0))
        runs = run_sweep(*grid, PI4, nu=10**6, sigma=0.05, seed=2**70)
        assert len({run.seed for run in runs}) == len(runs) == 42
        for run in runs:
            replay = run_experiment(
                ProbeFamily(run.probe_label, (run.p,)), run.setting_k, PI4, 10**6,
                NoiseSpec(0.05, run.seed),
            )
            assert replay == run and repr(replay) == repr(run)
        # The batch's records are frozen dataclasses like those __init__ builds.
        built = dataclasses.replace(runs[0])
        assert built == runs[0] and repr(built) == repr(runs[0]) and hash(built) == hash(runs[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            runs[0].seed = 1


class TestLeastSquares:
    def test_recovers_true_phase(self):
        rho = discordant_probe(0.5)
        ham = setting_hamiltonian(1)
        model = population_model(rho, ham, sld(rho, ham, PI4))
        fit = least_squares_estimate(measure_populations(model, PI4), model)
        assert not fit.failed
        assert fit.phi_hat == pytest.approx(PI4, abs=1e-6)
        assert fit.residual <= 1e-15

    def test_flat_objective_flags_failure(self, monkeypatch):
        # b and c vanish, so the fit fails as flat before any root is sought.
        monkeypatch.setattr(
            estimation_mod.np, "roots", lambda *args: pytest.fail("rooted a flat fit")
        )
        rho = classical_probe(0.8)
        ham = setting_hamiltonian(3)
        model = population_model(rho, ham, sld(rho, ham, PI4))
        for noise in (NoiseSpec(), NoiseSpec(0.05, 1)):
            fit = least_squares_estimate(measure_populations(model, PI4, noise), model)
            assert fit.failed
            assert math.isnan(fit.phi_hat)

    def test_zero_phase_identified(self):
        rho = discordant_probe(0.7)
        ham = setting_hamiltonian(2)
        model = population_model(rho, ham, sld(rho, ham, 0.0))
        fit = least_squares_estimate(measure_populations(model, 0.0), model)
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
                    model = population_model(rho, ham, sld(rho, ham, phi0))
                    d = measure_populations(model, 1.0, NoiseSpec(sigma, seed))

                    def objective(phi):
                        delta = model.at(phi) - d
                        return float(delta @ delta)

                    fit = least_squares_estimate(d, model)
                    if fit.failed:
                        continue
                    assert 0.0 <= fit.phi_hat <= math.pi / 2.0
                    assert fit.residual <= min(map(objective, grid)) + 1e-15
                    assert fit.residual == pytest.approx(
                        objective(fit.phi_hat), abs=1e-12
                    )

    def test_one_model_read_per_fit(self, monkeypatch):
        # The measurement and the fit share one model: a run builds it once,
        # and the adaptive loop once per round.  Both build it through the
        # stack kernel, a run as a batch of one.
        calls = []
        original = estimation_mod._population_stack

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(estimation_mod, "_population_stack", counted)
        run_experiment(ProbeFamily("Q", (0.7,)), 2, 0.4, noise=NoiseSpec(0.05, 5))
        assert len(calls) == 1
        calls.clear()
        trials, converged = adaptive_localize(
            discordant_probe(0.13), setting_hamiltonian(1), 3 * PI4 / 2
        )
        assert converged and len(trials) >= 3
        assert len(calls) == len(trials) - 1

    def test_segment_landscape_from_zero_basis(self):
        # Measured in the SLD basis at 0, the populations trace a segment and
        # pi/4 sits at its end: the quartic has a triple root there.
        rho = discordant_probe(0.13)
        ham = setting_hamiltonian(1)
        model = population_model(rho, ham, sld(rho, ham, 0.0))
        fit = least_squares_estimate(measure_populations(model, PI4), model)
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
        model = population_model(rho, ham, sld(rho, ham, phi))
        fit = least_squares_estimate(measure_populations(model, phi), model)
        assert not fit.failed
        assert fit.phi_hat == pytest.approx(phi, abs=1e-9)

    def test_exact_fit_independent_of_degenerate_basis(self):
        # sld fixes the basis inside a degenerate eigenspace by a tie-break, yet
        # an exact-mode fit must not depend on that choice: rotate each cluster
        # by Haar unitaries and recover the phase from every fit that does not fail.
        rng = np.random.default_rng(26)
        worst, fits = 0.0, 0
        for label, k, p, phi in product(
            ("Q", "C"), (1, 2, 3), flip_angle_grid(), (PI4 / 2, PI4, 3 * PI4 / 2)
        ):
            rho = make_probe(ProbeFamily(label, (p,)))
            ham = setting_hamiltonian(k)
            reference = sld(rho, ham, phi)
            for _ in range(3):
                vecs = reference.eigenbasis.copy()
                for start, stop in degenerate_clusters(reference.eigenvalues):
                    vecs[:, start:stop] = vecs[:, start:stop] @ haar_unitary(stop - start, rng)
                basis = dataclasses.replace(reference, eigenbasis=vecs)
                model = population_model(rho, ham, basis)
                fit = least_squares_estimate(measure_populations(model, phi), model)
                if not fit.failed:
                    worst, fits = max(worst, abs(fit.phi_hat - phi)), fits + 1
        # Only the runs without information fail: C under setting 3, and p = 0.
        assert fits == 1620
        assert worst <= 1e-9

    def test_populations_stable_under_ulp_moves_of_the_reference_phase(self):
        # The populations read in a degenerate SLD eigenspace must not follow the
        # basis LAPACK happens to return: moving the reference phase by 1-4 ulps
        # moved them by up to 0.55 with that basis.
        def worst_move(rho, ham, phi):
            d = population_model(rho, ham, sld(rho, ham, phi)).at(phi)
            worst, shifted = 0.0, phi
            for _ in range(4):
                shifted = np.nextafter(shifted, np.inf)
                moved = population_model(rho, ham, sld(rho, ham, shifted)).at(phi)
                worst = max(worst, np.max(np.abs(moved - d)))
            return worst

        worst = 0.0
        for label, k, p, phi in product(
            ("Q", "C", "werner"), (1, 2, 3), flip_angle_grid(), (PI4 / 2, PI4)
        ):
            rho = make_probe(ProbeFamily(label, (p,)))
            worst = max(worst, worst_move(rho, setting_hamiltonian(k), phi))
        rng = np.random.default_rng(27)
        for d_b, rank in product((2, 3, 4), (1, 2)):
            rho = random_density_matrix((2, d_b), rng, env_dim=rank)
            n = rng.standard_normal(3)
            ham = LocalHamiltonian.from_bloch(n / np.linalg.norm(n))
            worst = max(worst, worst_move(rho, ham, rng.uniform(0.0, math.pi)))
        assert worst <= 1e-12

    def test_degenerate_generator_is_flat(self):
        rho = discordant_probe(0.5)
        ham = LocalHamiltonian.from_matrix(np.eye(2))
        model = population_model(rho, ham, sld(rho, setting_hamiltonian(1), 0.0))
        fit = least_squares_estimate(measure_populations(model, 0.0), model)
        assert fit.failed
        assert math.isnan(fit.phi_hat)

    def test_qutrit_generator_rejected(self):
        # The fit reads the gap of a qubit generator; the adaptive loop rejects
        # a qutrit one at its boundary, before any round is fitted.
        rho = random_density_matrix((3, 2), np.random.default_rng(12))
        ham = LocalHamiltonian.from_matrix(np.diag([0.0, 1.0, 2.0]))
        with pytest.raises(SubsystemANotQubitError):
            adaptive_localize(rho, ham, 0.3)


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

    @pytest.mark.parametrize("nu", [-1, 0, 0.5, 2.5, math.nan, math.inf, True])
    @pytest.mark.parametrize("grid", [((), (1,), [0.5]), (("Q",), (), [0.5]), (("Q",), (1,), [])])
    def test_empty_sweep_rejects_bad_nu(self, nu, grid):
        # An empty sweep used to return [] without looking at nu.
        with pytest.raises(ParameterOutOfRangeError, match="nu must be finite and >= 1"):
            run_sweep(*grid, PI4, nu=nu)


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

    def test_checks_run_in_order_nu_probe_setting_window(self):
        bad_probe, good_probe = ProbeFamily("Q", (1.5,)), ProbeFamily("Q", (0.5,))
        with pytest.raises(ParameterOutOfRangeError, match="nu must be"):
            run_experiment(bad_probe, 4, 10.0, nu=-1)
        with pytest.raises(ParameterOutOfRangeError, match="p must lie in"):
            run_experiment(bad_probe, 4, 10.0)
        with pytest.raises(BadSettingError):
            run_experiment(good_probe, 4, 10.0)
        with pytest.raises(PhaseOutOfWindowError):
            run_experiment(good_probe, 1, 10.0)

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
        clone = EstimationRun(**run.to_json_dict())
        assert clone.setting_k == run.setting_k
        assert clone.phi_hat_mean == pytest.approx(run.phi_hat_mean, abs=1e-11)


def _comparable(run):
    # Families without parameters record p = nan, which never equals itself.
    return dataclasses.replace(run, p=repr(run.p))


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _eigvalsh_calls(monkeypatch):
    """Shapes of the np.linalg.eigvalsh calls: the power stacks of a sweep."""
    shapes = []
    original = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return shapes


DEFAULT_GRID = (("Q", "C"), (1, 2, 3), flip_angle_grid())


class TestSweepSharesProbes:
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_runs_equal_runs_on_fresh_families(self, sigma):
        labels, settings, p_values = ("werner", "sep", "Q", "C"), (3, 1, 2), [0.9, 0.13, 0.5]
        runs = run_sweep(labels, settings, p_values, PI4, nu=10**6, sigma=sigma, seed=5)
        combos = list(product(sorted(labels), sorted(settings), sorted(p_values)))
        seeds = np.random.default_rng(5).integers(0, 2**63 - 1, size=len(combos))
        expected = [
            run_experiment(
                ProbeFamily(label, (p,) if label != "sep" else ()),
                k,
                PI4,
                10**6,
                NoiseSpec(sigma, int(seed)),
            )
            for (label, k, p), seed in zip(combos, seeds)
        ]
        assert [_comparable(r) for r in runs] == [_comparable(r) for r in expected]

    def test_default_grid_builds_each_probe_once(self, monkeypatch):
        # One batch build of the 74 distinct families, their powers in one stack.
        builds = _count_calls(monkeypatch, estimation_mod, "build_probes")
        powers = _eigvalsh_calls(monkeypatch)
        runs = run_sweep(*DEFAULT_GRID, PI4)
        assert len(runs) == 222
        assert [len(families) for families, in builds] == [74]
        assert len(set(builds[0][0])) == 74
        assert powers == [(74, 3, 3)]

    def test_family_without_parameters_builds_once(self, monkeypatch):
        builds = _count_calls(monkeypatch, estimation_mod, "build_probes")
        powers = _eigvalsh_calls(monkeypatch)
        runs = run_sweep(("sep",), (1, 2, 3), [0.2, 0.5], PI4)
        assert len(runs) == 6
        assert builds == [([ProbeFamily("sep")],)]
        assert powers == [(1, 3, 3)]

    def test_no_memo_outlives_a_sweep(self, monkeypatch):
        builds = _count_calls(monkeypatch, estimation_mod, "build_probes")
        powers = _eigvalsh_calls(monkeypatch)
        first = run_sweep(*DEFAULT_GRID, PI4)
        second = run_sweep(*DEFAULT_GRID, PI4)
        assert first == second
        assert [len(families) for families, in builds] == [74, 74]
        assert powers == [(74, 3, 3)] * 2

    def test_equal_families_are_built_once(self, monkeypatch):
        # Families are keyed by value: two equal objects are one probe.
        builds = _count_calls(monkeypatch, estimation_mod, "build_probes")
        first, second = ProbeFamily("Q", (0.5,)), ProbeFamily("Q", (0.5,))
        assert first is not second
        runs = estimation_mod.run_batch([(first, 1, None), (second, 2, None)], PI4)
        assert builds == [([first],)]
        assert runs == [run_experiment(ProbeFamily("Q", (0.5,)), k, PI4) for k in (1, 2)]

    def test_one_batch_call_sees_every_run(self, monkeypatch):
        # The planted faults of the verify tests hook estimation.run_batch,
        # which a sweep calls once with all of its runs, in row order.
        seen = []
        original = estimation_mod.run_batch

        def recorded(runs, *args, **kwargs):
            seen.append(list(runs))
            return original(seen[-1], *args, **kwargs)

        monkeypatch.setattr(estimation_mod, "run_batch", recorded)
        runs = run_sweep(("Q", "sep"), (1, 3), [0.2, 0.7], PI4, sigma=0.05, seed=1)
        assert len(seen) == 1 and len(seen[0]) == len(runs) == 8
        assert [(probe.label, probe.p, k, noise.seed) for probe, k, noise in seen[0]] == [
            (run.probe_label, run.p, run.setting_k, run.seed) for run in runs
        ]


def reference_fit(d_meas, model):
    """The closed-form fit one model at a time, roots by np.roots: the loop
    the stacked fit replaces, kept as its reference."""
    omega, b, c = model.omega, model.b, model.c
    alpha = model.a - d_meas
    amp = math.sqrt(b @ b + c @ c)
    bound = 2.0 * (2.0 * math.sqrt(alpha @ alpha) * amp + amp * amp)
    if omega <= linalg_mod.FREQUENCY_CUTOFF or bound <= linalg_mod.RANGE_CUTOFF:
        return math.nan, float((alpha + b) @ (alpha + b)), True
    A, B = 2.0 * (alpha @ c), -2.0 * (alpha @ b)
    C, D = 2.0 * (b @ c), c @ c - b @ b
    roots = np.roots([C - 1j * D, A - 1j * B, 0.0, A + 1j * B, C + 1j * D])
    near = np.abs(roots[:, None] - roots[None, :]) <= linalg_mod.ROOT_CLUSTER
    theta = np.angle(near @ roots / near.sum(axis=1)) % (2.0 * math.pi)
    theta = np.concatenate(([0.0, math.pi], theta[theta <= math.pi]))
    residuals = alpha + np.outer(np.cos(theta), b) + np.outer(np.sin(theta), c)
    values = np.sum(residuals * residuals, axis=1)
    spread = values.max() - values.min()
    if spread < linalg_mod.RANGE_CUTOFF:
        return math.nan, float(values.min()), True
    tied = values <= values.min() + linalg_mod.TIE_BAND * spread
    best = int(np.argmin(np.where(tied, theta, np.inf)))
    return float(theta[best] / omega), float(values[best]), False


def _contiguous(model):
    # BLAS rounds a dot over a strided view (b is the real part of a complex
    # array) unlike one over contiguous data; stacking copies, so the
    # references below read contiguous copies too.
    return dataclasses.replace(model, **{name: getattr(model, name).copy() for name in "abc"})


def _fit_rows(rows):
    """The stacked fit of (model, d_meas) rows in one call."""
    return estimation_mod._fit_stack(
        np.array([d for _, d in rows]),
        np.array([m.omega for m, _ in rows]),
        *(np.array([getattr(m, name) for m, _ in rows]) for name in "abc"),
    )


def _eigh_calls(monkeypatch):
    """Shapes of the linalg.eigh_sorted calls, hooked in every module that holds it."""
    shapes = []
    original = linalg_mod.eigh_sorted

    def counted(herm):
        shapes.append(herm.shape)
        return original(herm)

    for module in (linalg_mod, states_mod, correlations_mod):
        if getattr(module, "eigh_sorted", None) is original:
            monkeypatch.setattr(module, "eigh_sorted", counted)
    return shapes


BATCH_LABELS = ("Q", "C", "werner", "sep", "bell")


class TestBatch:
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_batch_runs_equal_single_runs(self, sigma):
        grid = product(BATCH_LABELS, (1, 2, 3), (0.0, 0.35, 0.8, 1.0))
        batch = [
            (ProbeFamily(label, (p,) if label in SWEPT_LABELS else ()), k, NoiseSpec(sigma, seed))
            for seed, (label, k, p) in enumerate(grid)
        ]
        runs = estimation_mod.run_batch(batch, PI4, nu=10**6)
        assert runs == [run_experiment(probe, k, PI4, 10**6, noise) for probe, k, noise in batch]
        assert any(run.failed for run in runs) and not all(run.failed for run in runs)

    def test_run_bits_do_not_depend_on_the_batch(self):
        grid = (BATCH_LABELS[:2], (1, 2, 3), flip_angle_grid())
        for sigma in (0.0, 0.05):
            whole = run_sweep(*grid, 0.3, sigma=sigma, seed=11)
            assert len(whole) == 222
            seeds = np.random.default_rng(11).integers(0, 2**63 - 1, size=222)
            batch = [
                (ProbeFamily(run.probe_label, (run.p,)), run.setting_k, NoiseSpec(sigma, int(seed)))
                for run, seed in zip(whole, seeds)
            ]
            for start, size in [(s, 7) for s in range(0, 222, 7)] + [(0, 1), (100, 1), (221, 1)]:
                part = slice(start, start + size)
                assert estimation_mod.run_batch(batch[part], 0.3) == whole[part]

    def test_zero_leading_coefficient_inside_a_batch(self):
        # b . c = 0 and |b| = |c| make C = D = 0 exactly: np.roots drops the
        # leading and the last coefficient and keeps the root 0.  With
        # d_meas = a, A = B = 0 too and np.roots finds no root at all.
        degenerate = estimation_mod.PopulationModel(
            2.0,
            np.full(4, 0.25),
            np.array([0.1, -0.1, 0.0, 0.0]),
            np.array([0.0, 0.0, 0.1, -0.1]),
        )
        ordinary = []
        for label, k, phi in (("Q", 1, 0.3), ("C", 2, 1.1), ("werner", 3, 0.7)):
            rho, ham = make_probe(ProbeFamily(label, (0.6,))), setting_hamiltonian(k)
            model = _contiguous(population_model(rho, ham, sld(rho, ham, 0.2)))
            ordinary.append((model, measure_populations(model, phi)))
        rows = [
            ordinary[0],
            (degenerate, degenerate.at(0.4)),
            ordinary[1],
            (degenerate, degenerate.a.copy()),
            ordinary[2],
        ]
        assert np.vecdot(degenerate.b, degenerate.c) == 0.0
        assert np.vecdot(degenerate.b, degenerate.b) == np.vecdot(degenerate.c, degenerate.c)
        phi_hat, residual, failed = _fit_rows(rows)
        for i, (model, d_meas) in enumerate(rows):
            expected = pytest.approx(reference_fit(d_meas, model), nan_ok=True, abs=0)
            assert (phi_hat[i], residual[i], failed[i]) == expected
            single = least_squares_estimate(d_meas, model)
            assert (single.phi_hat, single.residual, single.failed) == expected
        assert not failed[1] and phi_hat[1] == pytest.approx(0.4, abs=1e-12)

    def test_batch_fits_equal_reference_fits(self):
        # Noisy data and bases away from the true phase exercise every branch
        # of the closed form; each stacked row matches the np.roots loop.
        rng = np.random.default_rng(8)
        rows = []
        for label, k, p in product(("Q", "C", "werner"), (1, 2, 3), (0.13, 0.5, 0.9)):
            rho, ham = make_probe(ProbeFamily(label, (p,))), setting_hamiltonian(k)
            for reference in (0.0, 0.5):
                model = _contiguous(population_model(rho, ham, sld(rho, ham, reference)))
                noise = NoiseSpec(0.05, int(rng.integers(2**31)))
                rows.append((model, measure_populations(model, PI4, noise)))
        result = _fit_rows(rows)
        for i, (model, d_meas) in enumerate(rows):
            expected = reference_fit(d_meas, model)
            assert tuple(r[i] for r in result) == pytest.approx(expected, nan_ok=True, abs=0)

    @pytest.mark.parametrize("d_b", [1, 2, 3, 4])
    def test_one_fit_equals_its_row_of_the_stack(self, d_b):
        # least_squares_estimate takes its bound and quartic from scalars.  The
        # models keep population_model's b, a strided view, as a row view does.
        rng = np.random.default_rng(30 + d_b)
        for rank in range(1, 2 * d_b + 1):
            rho = random_density_matrix((2, d_b), rng, env_dim=rank)
            n = rng.standard_normal(3)
            ham = LocalHamiltonian.from_bloch(n / np.linalg.norm(n))
            model = population_model(rho, ham, sld(rho, ham, float(rng.uniform(0.0, 1.5))))
            noise = NoiseSpec(0.05, int(rng.integers(2**31)))
            for d_meas in (model.a.copy(), model.at(0.4), measure_populations(model, 0.4, noise)):
                single = least_squares_estimate(d_meas, model)
                phi_hat, residual, failed = estimation_mod._fit_stack(
                    d_meas[None], np.array([model.omega]),
                    model.a[None], model.b[None], model.c[None],
                )
                assert np.array([single.phi_hat, single.residual]).tobytes() == (
                    np.array([phi_hat[0], residual[0]]).tobytes()
                )
                assert single.failed == failed[0]

    def test_bad_probe_mid_sweep_raises_before_any_run(self, monkeypatch):
        shapes = _eigh_calls(monkeypatch)
        with pytest.raises(ParameterOutOfRangeError) as raised:
            run_sweep(("C", "Q"), (1, 2), [0.3, 1.2], PI4)
        with pytest.raises(ParameterOutOfRangeError) as single:
            run_experiment(ProbeFamily("C", (1.2,)), 1, PI4)
        assert str(raised.value) == str(single.value) == "p must lie in [0, 1], got 1.2"
        assert shapes == []  # no probe is built before every run is checked

    @pytest.mark.parametrize("belldiag_first", [True, False])
    def test_bad_belldiag_and_bad_setting_raise_in_row_order(self, belldiag_first, monkeypatch):
        # A triple outside the tetrahedron keeps the family's own message, and
        # whichever bad run comes first raises, before any probe is built.
        shapes = _eigh_calls(monkeypatch)
        outside = (ProbeFamily("belldiag", (0.9, 0.9, 0.9)), 1, None)
        bad_setting = (ProbeFamily("Q", (0.5,)), 4, None)
        good = (ProbeFamily("C", (0.3,)), 2, None)
        runs = [good, outside, bad_setting] if belldiag_first else [good, bad_setting, outside]
        error = NotPositiveSemidefiniteError if belldiag_first else BadSettingError
        with pytest.raises(error) as raised:
            estimation_mod.run_batch(runs, PI4)
        with pytest.raises(error) as single:
            run_experiment(*runs[1][:2], PI4)
        assert str(raised.value) == str(single.value)
        if belldiag_first:
            assert "lies outside the state tetrahedron" in str(raised.value)
        assert shapes == []

    @pytest.mark.parametrize("bad", [4, 1.5, [1]])
    def test_bad_setting_after_checked_ones_raises_from_its_own_run(self, bad, monkeypatch):
        # Every run's setting is checked; a later bad one, unhashable or not,
        # raises its own error before any probe is built.
        shapes = _eigh_calls(monkeypatch)
        good = ProbeFamily("Q", (0.5,))
        with pytest.raises(BadSettingError, match=rf"got {re.escape(repr(bad))}$"):
            estimation_mod.run_batch(
                [(good, 1, None), (good, np.int64(1), None), (good, bad, None)], PI4
            )
        assert shapes == []

    @pytest.mark.parametrize(
        "grid, phi, error",
        [
            ((("Q", "nope"), (1, 4), [0.5]), PI4, BadSettingError),
            ((("Q", "werner"), (1,), [0.5, 1.5]), 2.0, PhaseOutOfWindowError),
            ((("nope", "werner"), (1,), [0.5]), PI4, ParameterOutOfRangeError),
        ],
    )
    def test_first_bad_run_raises_in_row_order(self, grid, phi, error):
        with pytest.raises(error):
            run_sweep(*grid, phi)

    @pytest.mark.parametrize(
        "labels, settings, error, message",
        [
            (["Q"], [1, "2"], BadSettingError, "setting must be 1, 2 or 3, got '2'"),
            (["Q", 1], [1], ParameterOutOfRangeError, "unknown probe label 1"),
        ],
        ids=["setting", "label"],
    )
    def test_labels_or_settings_that_cannot_be_sorted_raise_the_library_error(
        self, labels, settings, error, message
    ):
        # sorted() cannot order 1 and "2", or "Q" and 1; the sweep raised its TypeError.
        with pytest.raises(error, match=message):
            run_sweep(labels, settings, [0.5], PI4)

    def test_default_grid_solves_every_sld_in_one_stack(self, monkeypatch):
        # One eigh for the 74 probe states, one for all 222 L(0), at most one
        # per tie-break cluster size; a per-run path would show stacks of one.
        shapes = _eigh_calls(monkeypatch)
        runs = run_sweep(*DEFAULT_GRID, PI4)
        assert len(runs) == 222
        assert shapes[:2] == [(74, 4, 4), (222, 4, 4)]
        sizes = [shape[-1] for shape in shapes[2:]]
        assert all(len(shape) == 3 for shape in shapes)
        assert len(sizes) == len(set(sizes)) <= 3

    def test_families_without_parameters_record_no_p(self):
        first = run_sweep(("sep", "bell"), (1, 2), [0.5], PI4)
        assert all(run.p is None for run in first)
        assert first == run_sweep(("sep", "bell"), (1, 2), [0.5], PI4)
        assert ",nan," in sweep_csv_text(first).splitlines()[1]
        assert json.loads(sweep_json_text(first))[0]["p"] is None
