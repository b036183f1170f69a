"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Criteria 02, 05, 06, 07, 08 and 11 call the ``ipower.verify`` checks, the one
implementation of those property families, with the seeds, sizes and bounds
pinned here. Criteria 01, 03, 04, 09 and 10 keep their own references; the
hard-coded curves of criterion 01 are independent of ``predicted_qfi``.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from ipower.correlations import interferometric_power, ip_bell_diagonal, qfi
from ipower.estimation import ProbeFamily, adaptive_localize, run_experiment
from ipower.probes import (
    bell_diagonal_state,
    classical_probe,
    discordant_probe,
    flip_angle_grid,
    setting_hamiltonian,
    werner_state,
)
from ipower.verify import (
    check_channel_monotonicity,
    check_exact_sweep,
    check_faithfulness,
    check_hierarchy,
    check_local_unitary_invariance,
    check_noise_robustness,
    check_oracle_equivalence,
    check_probe_regression,
    check_pure_state_reduction,
)

PI4 = math.pi / 4
P_GRID = flip_angle_grid()  # 37 points, p = cos(theta), theta = 0..90 deg by 2.5


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number:2d}: {description}")
        raise
    print(f"[PASS] criterion {number:2d}: {description}")


def assert_passes(result):
    assert result.passed, result.line()


def test_criterion_01_precision_curves():
    with criterion(1, "qfi/4 matches the analytic curves on the 37-point grid"):
        assert len(P_GRID) == 37
        start = time.perf_counter()
        curves = {
            ("Q", 1): lambda p: 2 * p**2 / (1 + p**2),
            ("Q", 2): lambda p: p**2,
            ("Q", 3): lambda p: p**2,
            ("C", 1): lambda p: 2 * p**2 / (1 + p**2),
            ("C", 2): lambda p: p**2 / (1 + p**2),
            ("C", 3): lambda p: 0.0,
        }
        for p in P_GRID:
            probes = {"Q": discordant_probe(p), "C": classical_probe(p)}
            for (label, k), formula in curves.items():
                value = qfi(probes[label], setting_hamiltonian(k)) / 4.0
                assert abs(value - formula(p)) <= 1e-9, (label, k, p)
        assert time.perf_counter() - start < 5.0


def test_criterion_02_power_identity():
    with criterion(2, "power of the Q family is p^2, of the C family is 0"):
        assert_passes(check_probe_regression(1e-9))


def test_criterion_03_werner_formula():
    with criterion(3, "Werner power equals 2 f^2 / (1 + f)"):
        for f in np.arange(0.0, 1.0 + 1e-12, 0.1):
            value = interferometric_power(werner_state(f))
            assert abs(value - 2 * f**2 / (1 + f)) <= 1e-9, f


def test_criterion_04_bell_diagonal_closed_form():
    with criterion(4, "Bell-diagonal closed form matches the spectral route"):
        rng = np.random.default_rng(40)
        accepted = 0
        while accepted < 100:
            c = rng.uniform(-1.0, 1.0, 3)
            eigs = np.array(
                [
                    1 + c[0] - c[1] + c[2],
                    1 - c[0] + c[1] + c[2],
                    1 + c[0] + c[1] - c[2],
                    1 - c[0] - c[1] - c[2],
                ]
            ) / 4.0
            if eigs.min() < 1e-6 or 1.0 - np.max(c**2) < 1e-6:
                continue  # outside the tetrahedron or in the degenerate band
            accepted += 1
            closed = ip_bell_diagonal(*c)
            spectral = interferometric_power(bell_diagonal_state(*c))
            assert abs(closed - spectral) <= 1e-8, tuple(c)


def test_criterion_05_oracle_equivalence():
    with criterion(5, "sphere-grid minimization agrees with the closed form"):
        start = time.perf_counter()
        assert_passes(check_oracle_equivalence(np.random.default_rng(50), 200, 1e-12))
        assert time.perf_counter() - start < 60.0


def test_criterion_06_hierarchy():
    with criterion(6, "power never falls below the local quantum uncertainty"):
        assert_passes(check_hierarchy(np.random.default_rng(60), 500, 1e-10))


def test_criterion_07_measure_properties():
    with criterion(7, "faithfulness, unitary invariance, monotonicity, purity"):
        start = time.perf_counter()
        rng = np.random.default_rng(70)  # shared, drawn in this order
        assert_passes(check_faithfulness(rng, 50, 1e-9))
        assert_passes(check_local_unitary_invariance(rng, 100, 1e-9))
        assert_passes(check_channel_monotonicity(rng, 100, 1e-9))
        assert_passes(check_pure_state_reduction(rng, 50, 1e-6))
        assert time.perf_counter() - start < 120.0


def test_criterion_08_estimation_exact_mode():
    with criterion(8, "exact-mode estimation is unbiased and saturates Cramer-Rao"):
        assert_passes(check_exact_sweep(1e-9))


def test_criterion_09_qfi_saturates_power():
    with criterion(9, "reconstructed qfi/4 saturates the power for Q at k = 2, 3"):
        for p in P_GRID:
            power = interferometric_power(discordant_probe(p))
            for k in (2, 3):
                run = run_experiment(ProbeFamily("Q", (p,)), k, PI4)
                assert abs(run.f_exp / 4.0 - power) <= 1e-9


def test_criterion_10_adaptive_localization():
    with criterion(10, "adaptive localization reaches pi/4 within five rounds"):
        rho = discordant_probe(0.13)
        ham = setting_hamiltonian(1)
        trials, converged = adaptive_localize(rho, ham, PI4, max_iters=5)
        assert converged
        assert len(trials) <= 5
        assert abs(trials[-1] - PI4) <= 1e-6


def test_criterion_11_noise_robustness_substitute():
    # Hardware-correlated error scatter is not reproducible in simulation;
    # the agreed substitute is the seeded 5 percent relative-Gaussian model.
    with criterion(11, "95 percent of 5 percent-noise runs stay within 0.05 rad"):
        assert_passes(check_noise_robustness(np.random.default_rng(110), 200, 0.05))
