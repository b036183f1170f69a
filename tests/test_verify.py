"""Each property family of ``ipower.verify`` passes, then fails at a small sample
size once a fault is planted in the measure it checks."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from ipower import correlations, estimation, verify

ip, lqu, qfi, sld, evolve = (
    verify.interferometric_power, verify.local_quantum_uncertainty, verify.qfi, verify.sld,
    verify.evolve,
)
eig, landscape = verify.eig_hermitian, verify.qfi_sphere_grid
quadratic_form = correlations._quadratic_form
batch = estimation.run_batch


def rng():
    return np.random.default_rng(5)


# Makes check_eig_roundtrip draw diag(0, 1e-12, 1), whose lowest pair is 1e-12 apart.
NEAR_DEGENERATE = SimpleNamespace(
    integers=lambda low, high: 3, standard_normal=lambda shape: np.diag([0.0, 1e-12, 1.0])
)


def shifted(offset, measure=ip):
    return lambda rho: measure(rho) + offset


def stack_shifted(offset):  # the power of each state of a stacked state, plus offset
    return lambda stack: [x + offset for x in ip(stack)]


def minimum_at(offset):  # stands in for a (value, direction) minimizer
    return lambda rho, *grid: (ip(rho) + offset, None)


def shifted_run(r, offset):
    return r if r.failed else dataclasses.replace(r, phi_hat_mean=r.phi_hat_mean + offset)


def biased_batch(offset):
    return lambda *args, **kwargs: [shifted_run(r, offset) for r in batch(*args, **kwargs)]


def pole_lowered(offset):
    def planted(rho, *grid):
        thetas, phis, values = landscape(rho, *grid)
        values = values.copy()
        values[0, 0] -= offset  # the grid maximum now exceeds the pole by ~offset
        return thetas, phis, values

    return planted


def form_scaled(factor):  # both 3x3 forms, so both closed forms, times factor
    return lambda rho, weights: quadratic_form(rho, weights) * factor


def eigenbasis_scaled(*args):  # each column's norm is now 1 + 1e-11
    decomposition = sld(*args)
    return dataclasses.replace(decomposition, eigenbasis=decomposition.eigenbasis * (1 + 1e-11))


def swap_lowest_pair(herm):
    vals, vecs = eig(herm)
    order = [1, 0, *range(2, len(vals))]
    return vals[order], vecs[:, order]  # still an exact eigendecomposition


CHECKS = {
    "eig": lambda: verify.check_eig_roundtrip(rng(), 3, 1e-9),
    "eig-near-degenerate": lambda: verify.check_eig_roundtrip(NEAR_DEGENERATE, 1, 1e-9),
    "evolve": lambda: verify.check_evolve_spectrum(rng(), 3, 1e-9),
    "regression": lambda: verify.check_probe_regression(1e-9),
    "landscape": lambda: verify.check_setting_landscape(0.02),
    "oracle": lambda: verify.check_oracle_equivalence(rng(), 3, 1e-12),
    "hierarchy": lambda: verify.check_hierarchy(rng(), 5, 1e-10),
    "hierarchy-qutrit": lambda: verify.check_hierarchy(rng(), 5, 1e-10, d_b=3),
    "faithfulness": lambda: verify.check_faithfulness(rng(), 3, 1e-9),
    "invariance": lambda: verify.check_local_unitary_invariance(rng(), 3, 1e-9),
    # The fourth draw is the first full-rank state, whose uncertainty is compared.
    "invariance-qutrit": lambda: verify.check_local_unitary_invariance(rng(), 4, 1e-9, d_b=3),
    "monotonicity": lambda: verify.check_channel_monotonicity(rng(), 4, 1e-9),
    "monotonicity-qutrit": lambda: verify.check_channel_monotonicity(rng(), 3, 1e-9, d_b=3),
    "sld": lambda: verify.check_sld_equation(rng(), 3, 1e-9),
    "qfi-scaling": lambda: verify.check_qfi_additive_invariance(rng(), 3, 1e-9),
    "basis": lambda: verify.check_basis_independence(rng(), 2, 1e-10),
    "pure-reduction": lambda: verify.check_pure_state_reduction(rng(), 3, 1e-6),
    "exact-sweep": lambda: verify.check_exact_sweep(1e-9),
    "unbiasedness": lambda: verify.check_unbiasedness_exact(1e-6),
    "noise": lambda: verify.check_noise_robustness(rng(), 5, 0.05),
}

# id: (check in CHECKS, name patched, planted fault).  The name is patched in
# ipower.verify, or in the module HOMES gives: run_batch in ipower.estimation,
# through which run_sweep and verify call it, and _quadratic_form in
# ipower.correlations, where both closed forms read it.
HOMES = {"run_batch": estimation, "_quadratic_form": correlations}
FAULTS = {
    "eig-unsorted": ("eig", "eig_hermitian", lambda h: tuple(a[..., ::-1] for a in eig(h))),
    "eig-near-degenerate-swap": ("eig-near-degenerate", "eig_hermitian", swap_lowest_pair),
    "evolve-phase-negated": ("evolve", "evolve", lambda rho, ham, phi: evolve(rho, ham, -phi)),
    "regression-Q-power": ("regression", "interferometric_power", shifted(2e-9)),
    "regression-C-power": ("regression", "interferometric_power", shifted(5e-10)),
    "landscape-pole-below-maximum": ("landscape", "qfi_sphere_grid", pole_lowered(1e-10)),
    "oracle-grid-below-closed-form": ("oracle", "ip_grid_search", minimum_at(-1e-9)),
    "oracle-grid-far-above": ("oracle", "ip_grid_search", minimum_at(1e-3)),
    "oracle-grid-slightly-above": ("oracle", "ip_grid_search", minimum_at(1e-8)),
    "oracle-closed-form-high": ("oracle", "_quadratic_form", form_scaled(1 + 1e-11)),
    # About 2e-12 below the oracle, which a bound of 1e-10 would pass.
    "oracle-closed-form-low": ("oracle", "_quadratic_form", form_scaled(1 - 1e-11)),
    "hierarchy-LQU-above-IP": ("hierarchy", "local_quantum_uncertainty", stack_shifted(1e-8)),
    "hierarchy-qutrit-B": ("hierarchy-qutrit", "local_quantum_uncertainty", stack_shifted(1e-8)),
    "faithfulness-classical-shifted": ("faithfulness", "interferometric_power", shifted(1e-8)),
    "faithfulness-discordant-zero": ("faithfulness", "interferometric_power", lambda rho: 0.0),
    "invariance-matrix-element": (
        "invariance", "interferometric_power", lambda rho: ip(rho) + 1e-6 * rho.matrix[0, 0].real
    ),
    "invariance-qutrit-LQU": (
        "invariance-qutrit", "local_quantum_uncertainty",
        lambda rho: lqu(rho) + 1e-6 * rho.matrix[0, 0].real,
    ),
    "monotonicity-grows-with-mixing": (
        "monotonicity", "interferometric_power", lambda rho: 1.0 - rho.purity()),
    "monotonicity-qutrit-LQU-grows-with-mixing": (
        "monotonicity-qutrit", "local_quantum_uncertainty", lambda rho: 1.0 - rho.purity()),
    "sld-eigenbasis-off-orthonormal": ("sld", "sld", eigenbasis_scaled),
    "qfi-scaling-sees-the-shift": (
        "qfi-scaling", "qfi", lambda rho, ham: qfi(rho, ham) + 1e-6 * ham.matrix[0, 0].real
    ),
    "basis-dependent-power": (
        "basis", "interferometric_power", lambda rho: ip(rho) + 1e-6 * abs(rho.eigenvectors[0, 0])
    ),
    "pure-reduction-variance": ("pure-reduction", "min_local_variance", minimum_at(1e-5)),
    "pure-reduction-variance-slightly-off": (
        "pure-reduction", "min_local_variance", minimum_at(1e-9)),
    "pure-reduction-LQU": ("pure-reduction", "local_quantum_uncertainty", shifted(1e-5, lqu)),
    "exact-sweep-bias": ("exact-sweep", "run_batch", biased_batch(2e-6)),
    "unbiasedness-bias": ("unbiasedness", "run_batch", biased_batch(1e-5)),
    "noise-every-estimate-off": ("noise", "run_batch", biased_batch(0.1)),
}


@pytest.mark.parametrize("name", list(FAULTS))
def test_planted_fault_fails_the_family(name, monkeypatch):
    family, target, fault = FAULTS[name]
    clean = CHECKS[family]()
    assert clean.passed, clean.line()
    monkeypatch.setattr(HOMES.get(target, verify), target, fault)
    result = CHECKS[family]()
    assert not result.passed and result.trials == clean.trials, result.line()


@pytest.mark.parametrize("failed", [True, False])
def test_exact_mode_families_fail_when_runs_break_the_failure_rule(failed, monkeypatch):
    # True: every run fails, so nothing is checked. False: runs without
    # information (probe C under setting 3) come back unflagged.  Both
    # families' runs pass through estimation.run_batch.
    def planted(*args, **kwargs):
        return [dataclasses.replace(r, failed=failed) for r in batch(*args, **kwargs)]

    monkeypatch.setattr(estimation, "run_batch", planted)
    for result in (verify.check_unbiasedness_exact(1e-6), verify.check_exact_sweep(1e-9)):
        assert result.line().startswith("FAIL"), result.line()


def test_family_without_trials_fails():
    assert not verify._result("empty", [], 1.0).passed


def test_each_sampled_family_has_its_own_seed():
    families = [family for family, *_ in verify.ALL_CHECKS if family is not None]
    assert len(families) == len(set(families))
