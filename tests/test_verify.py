"""Each property family of ``ipower.verify`` passes, then fails at a small sample
size once a fault is planted in the measure it checks."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from ipower import estimation, verify

ip, lqu = verify.interferometric_power, verify.local_quantum_uncertainty
run, eig = verify.run_experiment, verify.eig_hermitian


def rng():
    return np.random.default_rng(5)


# Makes check_eig_roundtrip draw diag(0, 1e-12, 1), whose lowest pair is 1e-12 apart.
NEAR_DEGENERATE = SimpleNamespace(
    integers=lambda low, high: 3, standard_normal=lambda shape: np.diag([0.0, 1e-12, 1.0])
)


def shifted(offset, measure=ip):
    return lambda rho: measure(rho) + offset


def minimum_at(offset):  # stands in for a (value, direction) minimizer
    return lambda rho, *grid: (ip(rho) + offset, None)


def biased(offset):
    def planted(*args, **kwargs):
        r = run(*args, **kwargs)
        return r if r.failed else dataclasses.replace(r, phi_hat_mean=r.phi_hat_mean + offset)

    return planted


def swap_lowest_pair(herm):
    vals, vecs = eig(herm)
    order = [1, 0, *range(2, len(vals))]
    return vals[order], vecs[:, order]  # still an exact eigendecomposition


CHECKS = {
    "eig": lambda: verify.check_eig_roundtrip(rng(), 3, 1e-9),
    "eig-near-degenerate": lambda: verify.check_eig_roundtrip(NEAR_DEGENERATE, 1, 1e-9),
    "regression": lambda: verify.check_probe_regression(1e-9),
    "oracle": lambda: verify.check_oracle_equivalence(rng(), 3, 5e-4),
    "hierarchy": lambda: verify.check_hierarchy(rng(), 5, 1e-10),
    "hierarchy-qutrit": lambda: verify.check_hierarchy(rng(), 5, 1e-10, d_b=3),
    "faithfulness": lambda: verify.check_faithfulness(rng(), 3, 1e-9),
    "invariance": lambda: verify.check_local_unitary_invariance(rng(), 3, 1e-9),
    "monotonicity": lambda: verify.check_channel_monotonicity(rng(), 4, 1e-9),
    "pure-reduction": lambda: verify.check_pure_state_reduction(rng(), 3, 1e-6),
    "exact-sweep": lambda: verify.check_exact_sweep(1e-9),
    "noise": lambda: verify.check_noise_robustness(rng(), 5, 0.05),
}

# id: (check in CHECKS, name patched in ipower.verify, planted fault)
FAULTS = {
    "eig-unsorted": ("eig", "eig_hermitian", lambda h: tuple(a[..., ::-1] for a in eig(h))),
    "eig-near-degenerate-swap": ("eig-near-degenerate", "eig_hermitian", swap_lowest_pair),
    "regression-Q-power": ("regression", "interferometric_power", shifted(2e-9)),
    "regression-C-power": ("regression", "interferometric_power", shifted(5e-10)),
    "oracle-grid-below-closed-form": ("oracle", "ip_grid_search", minimum_at(-1e-9)),
    "oracle-grid-far-above": ("oracle", "ip_grid_search", minimum_at(1e-3)),
    "hierarchy-LQU-above-IP": ("hierarchy", "local_quantum_uncertainty", shifted(1e-8)),
    "hierarchy-qutrit-B": ("hierarchy-qutrit", "local_quantum_uncertainty", shifted(1e-8)),
    "faithfulness-classical-shifted": ("faithfulness", "interferometric_power", shifted(1e-8)),
    "faithfulness-discordant-zero": ("faithfulness", "interferometric_power", lambda rho: 0.0),
    "invariance-matrix-element": (
        "invariance", "interferometric_power", lambda rho: ip(rho) + 1e-6 * rho.matrix[0, 0].real
    ),
    "monotonicity-grows-with-mixing": (
        "monotonicity", "interferometric_power", lambda rho: 1.0 - rho.purity()),
    "pure-reduction-variance": ("pure-reduction", "min_local_variance", minimum_at(1e-5)),
    "pure-reduction-LQU": ("pure-reduction", "local_quantum_uncertainty", shifted(1e-5, lqu)),
    "exact-sweep-bias": ("exact-sweep", "run_experiment", biased(2e-6)),
    "noise-every-estimate-off": ("noise", "run_experiment", biased(0.1)),
}


@pytest.mark.parametrize("name", list(FAULTS))
def test_planted_fault_fails_the_family(name, monkeypatch):
    family, target, fault = FAULTS[name]
    clean = CHECKS[family]()
    assert clean.passed, clean.line()
    monkeypatch.setattr(verify, target, fault)
    monkeypatch.setattr(estimation, "run_experiment", verify.run_experiment)  # for run_sweep
    result = CHECKS[family]()
    assert not result.passed and result.trials == clean.trials, result.line()


@pytest.mark.parametrize("failed", [True, False])
def test_exact_mode_families_fail_when_runs_break_the_failure_rule(failed, monkeypatch):
    # True: every run fails, so nothing is checked. False: runs without
    # information (probe C under setting 3) come back unflagged.
    def planted(*args, **kwargs):
        return dataclasses.replace(run(*args, **kwargs), failed=failed)

    monkeypatch.setattr(verify, "run_experiment", planted)
    monkeypatch.setattr(estimation, "run_experiment", planted)
    for result in (verify.check_unbiasedness_exact(1e-6), verify.check_exact_sweep(1e-9)):
        assert result.line().startswith("FAIL"), result.line()


def test_family_without_trials_fails():
    assert not verify._result("empty", [], 1.0).passed


def test_each_sampled_family_has_its_own_seed():
    families = [family for family, *_ in verify.ALL_CHECKS if family is not None]
    assert len(families) == len(set(families))
