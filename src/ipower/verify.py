"""Seeded property suites: the one implementation of every property check.

A sampled check takes ``(rng, n, bound)`` and draws ``n`` samples from ``rng``
in a fixed order; a deterministic check takes ``bound`` alone. A sample fails
when its deviation exceeds ``bound``, and a family without trials fails.
:func:`run_all` seeds each family with ``default_rng([seed, family])``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from . import estimation
from .correlations import (
    interferometric_power,
    ip_grid_search,
    local_quantum_uncertainty,
    min_local_variance,
    qfi,
    qfi_sphere_grid,
    sld,
)
from .estimation import NoiseSpec, ProbeFamily, adaptive_localize, run_sweep
from .linalg import FISHER_CUTOFF, _count, _real, dagger, eig_hermitian, tensor
from .probes import (
    classical_probe,
    discordant_probe,
    flip_angle_grid,
    make_probe,
    predicted_qfi,
    setting_hamiltonian,
    werner_state,
)
from .sampling import (
    _random_density_array,
    amplitude_damping_kraus,
    apply_channel_b,
    depolarizing_kraus,
    haar_unitary,
    random_classical_classical_state,
    random_classical_quantum_state,
    random_density_matrix,
    random_isometry_kraus,
    random_pure_density_matrix,
    remix_degenerate_eigenspaces,
)
from .states import DensityMatrix, LocalHamiltonian, evolve, hs_fidelity, partial_trace


@dataclass
class PropertyResult:
    name: str
    passed: bool
    trials: int
    failures: int
    worst: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: {self.trials - self.failures}/{self.trials} ok, "
            f"worst deviation {self.worst:.3e}"
        )


def _result(name, deviations, bound) -> PropertyResult:
    devs = np.asarray(deviations, dtype=float)
    failures = int(np.sum(devs > bound))
    return PropertyResult(
        name=name,
        passed=len(devs) > 0 and failures == 0,
        trials=len(devs),
        failures=failures,
        worst=float(devs.max()) if len(devs) else 0.0,
    )


def _qudit(d_b) -> str:
    return "" if d_b == 2 else f" (d_B = {d_b})"


def _random_bloch(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def check_eig_roundtrip(rng, n, bound) -> PropertyResult:
    devs, n, bound = [], _count(n, "n"), _real(bound, "bound", 0.0)
    for _ in range(n):
        dim = int(rng.integers(2, 9))
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        herm = (z + dagger(z)) / 2.0
        vals, vecs = eig_hermitian(herm)
        recon = (vecs * vals) @ dagger(vecs)
        orth = np.max(np.abs(dagger(vecs) @ vecs - np.eye(dim)))
        residual = np.max(np.abs(herm @ vecs - vecs * vals))
        unsorted = 0.0 if np.all(np.diff(vals) >= 0) else math.inf
        devs.append(max(np.max(np.abs(recon - herm)), orth, residual, unsorted))
    return _result("eigendecomposition round trip", devs, bound)


def check_partial_trace_factors(rng, n, bound) -> PropertyResult:
    devs, n, bound = [], _count(n, "n"), _real(bound, "bound", 0.0)
    for _ in range(n):
        rho_a = random_density_matrix((2, 1), rng)
        rho_b = random_density_matrix((2, 1), rng)
        product = DensityMatrix.from_matrix(
            tensor(rho_a.matrix, rho_b.matrix), (2, 2)
        )
        for label, part in (("A", rho_a), ("B", rho_b)):
            devs.append(np.max(np.abs(partial_trace(product, label).matrix - part.matrix)))
    return _result("partial trace of product states", devs, bound)


def check_evolve_spectrum(rng, n, bound) -> PropertyResult:
    """The evolved matrix against the literal (U x I) rho (U x I)†, with
    U = cos(phi) I - i sin(phi) n . sigma, and its spectrum against the input's."""
    devs, n, bound = [], _count(n, "n"), _real(bound, "bound", 0.0)
    for _ in range(n):
        rho = random_density_matrix((2, 2), rng, env_dim=int(rng.integers(1, 5)))
        ham = LocalHamiltonian.from_bloch(_random_bloch(rng))
        phi = rng.uniform(0, 2 * np.pi)
        out = evolve(rho, ham, phi)
        u = tensor(np.cos(phi) * np.eye(2) - 1j * np.sin(phi) * ham.matrix, np.eye(2))
        devs.append(np.max(np.abs(out.matrix - u @ rho.matrix @ dagger(u))))
        devs.append(np.max(np.abs(np.linalg.eigvalsh(out.matrix) - rho.eigenvalues)))
    return _result("evolution preserves the spectrum", devs, bound)


def check_fidelity_properties(rng, n, bound) -> PropertyResult:
    devs, n, bound = [], _count(n, "n"), _real(bound, "bound", 0.0)
    for _ in range(n):
        a = random_density_matrix((2, 2), rng)
        b = random_density_matrix((2, 2), rng)
        devs.append(abs(hs_fidelity(a, b) - hs_fidelity(b, a)))
        pure = random_pure_density_matrix((2, 2), rng)
        devs.append(abs(hs_fidelity(pure, pure) - 1.0))
    return _result("Hilbert-Schmidt fidelity symmetry", devs, bound)


def check_oracle_equivalence(rng, n, bound) -> PropertyResult:
    devs, n, bound = [], _count(n, "n"), _real(bound, "bound", 0.0)
    for _ in range(n):
        rho = random_density_matrix((2, 2), rng, env_dim=int(rng.integers(1, 5)))
        closed = interferometric_power(rho)
        value, _ = ip_grid_search(rho, 256, 512)
        if value < closed - 1e-12:
            devs.append(1.0)  # grid fell below the certified minimum
        else:
            devs.append(abs(value - closed))
    return _result("closed form vs sphere-grid minimization", devs, bound)


def check_faithfulness(rng, n, bound, d_b=2) -> PropertyResult:
    """``n`` classical-quantum, then ``n`` classical-classical states must have
    a power within ``bound``; then ``n`` random states must exceed 1e-6."""
    n, bound, d_b = _count(n, "n"), _real(bound, "bound", 0.0), _count(d_b, "d_b", 1)
    devs = [
        interferometric_power(sampler((2, d_b), rng))
        for sampler in (random_classical_quantum_state, random_classical_classical_state)
        for _ in range(n)
    ]
    for _ in range(n):
        value = interferometric_power(random_density_matrix((2, d_b), rng))
        devs.append(0.0 if value > 1e-6 else 1.0)
    return _result(f"faithfulness on classical vs discordant states{_qudit(d_b)}", devs, bound)


def check_local_unitary_invariance(rng, n, bound, d_b=2) -> PropertyResult:
    """The power of every state, and the uncertainty of full-rank states, under
    U_A x U_B.  On rank-deficient states the uncertainty carries square roots of
    eigenvalue dust, up to ~1e-8, so it is compared at full rank only."""
    devs, n, bound, d_b = [], _count(n, "n"), _real(bound, "bound", 0.0), _count(d_b, "d_b", 1)
    for _ in range(n):
        env_dim = int(rng.integers(1, 2 * d_b + 1))
        rho = random_density_matrix((2, d_b), rng, env_dim=env_dim)
        u = tensor(haar_unitary(2, rng), haar_unitary(d_b, rng))
        rotated = DensityMatrix.from_matrix(u @ rho.matrix @ dagger(u), rho.dims)
        devs.append(abs(interferometric_power(rotated) - interferometric_power(rho)))
        if env_dim == 2 * d_b:
            devs.append(abs(local_quantum_uncertainty(rotated) - local_quantum_uncertainty(rho)))
    return _result(f"local-unitary invariance{_qudit(d_b)}", devs, bound)


def check_channel_monotonicity(rng, n, bound, d_b=2) -> PropertyResult:
    """Power and uncertainty of full-rank states under B-side channels: on a
    qubit B depolarizing, amplitude damping and random isometric channels in
    turn, on a larger B random isometric channels only."""
    devs, n, bound, d_b = [], _count(n, "n"), _real(bound, "bound", 0.0), _count(d_b, "d_b", 1)
    channels = (
        lambda: depolarizing_kraus(rng.uniform(0, 1)),
        lambda: amplitude_damping_kraus(rng.uniform(0, 1)),
        lambda: random_isometry_kraus(d_b, rng),
    )
    if d_b != 2:
        channels = channels[2:]
    for i in range(n):
        rho = random_density_matrix((2, d_b), rng)
        degraded = apply_channel_b(rho, channels[i % len(channels)]())
        for measure in (interferometric_power, local_quantum_uncertainty):
            devs.append(max(measure(degraded) - measure(rho), 0.0))
    return _result(f"monotonicity under B-side channels{_qudit(d_b)}", devs, bound)


def check_pure_state_reduction(rng, n, bound, d_b=2) -> PropertyResult:
    """IP = minimal local variance within 1e-12, a deviation scaled onto ``bound``,
    and IP = LQU within ``bound``: the LQU carries sqrt(eigenvalue dust)."""
    devs, n, bound, d_b = [], _count(n, "n"), _real(bound, "bound", 0.0), _count(d_b, "d_b", 1)
    for _ in range(n):
        pure = random_pure_density_matrix((2, d_b), rng)
        ip = interferometric_power(pure)
        variance, _ = min_local_variance(pure)
        devs.append(abs(ip - variance) * (bound / 1e-12))
        devs.append(abs(local_quantum_uncertainty(pure) - ip))
    return _result(f"pure-state reduction to minimal local variance{_qudit(d_b)}", devs, bound)


def check_hierarchy(rng, n, bound, d_b=2) -> PropertyResult:
    """LQU <= IP on ``n`` random states of random rank, all drawn first and then
    measured as one stacked state: every uncertainty in one ``eigvalsh``, every
    power in another."""
    n, bound, d_b = _count(n, "n"), _real(bound, "bound", 0.0), _count(d_b, "d_b", 1)
    drawn = [
        _random_density_array((2, d_b), rng, env_dim=int(rng.integers(1, 2 * d_b + 1)))
        for _ in range(n)
    ]
    stack = DensityMatrix.from_matrix(np.reshape(drawn, (n, 2 * d_b, 2 * d_b)), (2, d_b))
    gaps = zip(local_quantum_uncertainty(stack), interferometric_power(stack))
    devs = [max(lqu - ip, 0.0) for lqu, ip in gaps]
    return _result(f"uncertainty lower-bounds the power{_qudit(d_b)}", devs, bound)


def check_sld_equation(rng, n, bound) -> PropertyResult:
    """The SLD equation, <L> = 0 and <L^2> = F at phi0 in [0, pi) for the
    settings and random Bloch generators; the eigenbasis must be orthonormal
    within 1e-12, a deviation scaled onto ``bound``."""
    devs, n, bound = [], _count(n, "n"), _real(bound, "bound", 0.0)
    for _ in range(n):
        rho = random_density_matrix((2, 2), rng, env_dim=int(rng.integers(1, 5)))
        ham = (
            setting_hamiltonian(int(rng.integers(1, 4)))
            if rng.uniform() < 0.5
            else LocalHamiltonian.from_bloch(_random_bloch(rng))
        )
        phi0 = rng.uniform(0, np.pi)
        decomposition = sld(rho, ham, phi0)
        encoded = evolve(rho, ham, phi0)
        h_full = tensor(ham.matrix, np.eye(rho.d_b))
        drho = -1j * (h_full @ encoded.matrix - encoded.matrix @ h_full)
        operator = decomposition.operator()
        residual = drho - (encoded.matrix @ operator + operator @ encoded.matrix) / 2.0
        devs.append(np.linalg.norm(residual, 2))
        devs.append(abs(np.trace(encoded.matrix @ operator).real))
        devs.append(
            abs(np.trace(encoded.matrix @ operator @ operator).real - qfi(rho, ham))
        )
        basis = decomposition.eigenbasis
        orth = np.max(np.abs(dagger(basis) @ basis - np.eye(decomposition.dim)))
        devs.append(orth * (bound / 1e-12))
    return _result("SLD defining equation and QFI consistency", devs, bound)


def check_basis_independence(rng, n, bound) -> PropertyResult:
    devs, n, bound = [], _count(n, "n"), _real(bound, "bound", 0.0)
    for i in range(n):
        f = rng.uniform(0.1, 0.9)
        rho = werner_state(f) if i % 2 == 0 else random_density_matrix(
            (2, 2), rng, env_dim=2
        )
        remixed = remix_degenerate_eigenspaces(rho, rng)
        devs.append(
            abs(interferometric_power(remixed) - interferometric_power(rho))
        )
    return _result("degenerate-eigenspace basis independence", devs, bound)


def check_qfi_additive_invariance(rng, n, bound) -> PropertyResult:
    """F(a H + b I) = a^2 F(H), deviations relative to max(1, a^2 F(H))."""
    devs, n, bound = [], _count(n, "n"), _real(bound, "bound", 0.0)
    for _ in range(n):
        rho = random_density_matrix((2, 2), rng, env_dim=int(rng.integers(1, 5)))
        ham = LocalHamiltonian.from_bloch(_random_bloch(rng))
        b = rng.uniform(-3, 3)
        unshifted = qfi(rho, ham)
        for a in (1.0, rng.uniform(-2, 2)):
            shifted = LocalHamiltonian.from_matrix(a * ham.matrix + b * np.eye(2))
            reference = a * a * unshifted
            devs.append(abs(qfi(rho, shifted) - reference) / max(1.0, reference))
    return _result("QFI scaling and shift identity", devs, bound)


def check_probe_regression(bound) -> PropertyResult:
    devs, bound = [], _real(bound, "bound", 0.0)
    for p in flip_angle_grid():
        probes = {"Q": discordant_probe(p), "C": classical_probe(p)}
        for label, rho in probes.items():
            devs.append(abs(rho.purity() - (1 + p * p) ** 2 / 4.0))
            for k in (1, 2, 3):
                devs.append(
                    abs(qfi(rho, setting_hamiltonian(k)) - predicted_qfi(label, p, k))
                )
        devs.append(abs(interferometric_power(probes["Q"]) - p * p))
        # The C family must vanish ten times tighter than the other deviations.
        devs.append(interferometric_power(probes["C"]) * 10.0)
    return _result("probe family analytic regression", devs, bound)


def check_setting_landscape(bound) -> PropertyResult:
    p, devs, bound = 0.8, [], _real(bound, "bound", 0.0)
    for label, rho in (("Q", discordant_probe(p)), ("C", classical_probe(p))):
        thetas, phis, grid = qfi_sphere_grid(rho, 181, 360)
        bottom = np.unravel_index(np.argmin(grid), grid.shape)
        # Maximum attained at theta = 0: the grid max may exceed the polar
        # value by 1e-12 at most, scaled onto the angle bound.
        devs.append(max(grid.max() - grid[0, 0], 0.0) * (bound / 1e-12))
        theta_min = thetas[bottom[0]]
        devs.append(abs(theta_min - np.pi / 2))
        if label == "C":
            phi_min = phis[bottom[1]] % np.pi
            devs.append(min(phi_min, np.pi - phi_min))
    return _result("worst/best-case landscape locations", devs, bound)


def check_guaranteed_precision(bound, ps=(0.2, 0.5, 0.8, 1.0)) -> PropertyResult:
    devs, bound = [], _real(bound, "bound", 0.0)
    for p in ps:
        for rho in (discordant_probe(p), classical_probe(p)):
            ip = interferometric_power(rho)
            _, _, grid = qfi_sphere_grid(rho, 64, 64)
            devs.append(max(ip - grid.min() / 4.0, 0.0))
    return _result("worst-case value certifies every direction", devs, bound)


def _misflagged(run) -> bool:
    """An exact-mode run must fail exactly when the model predicts no information:
    probe C under setting 3, p = 0 or f_exp <= ``FISHER_CUTOFF``."""
    no_information = run.probe_label == "C" and run.setting_k == 3
    return run.failed != (no_information or run.p == 0.0 or run.f_exp <= FISHER_CUTOFF)


def check_exact_sweep(bound) -> PropertyResult:
    """The figure-3 sweep at pi/4: Cramer-Rao saturation and the predicted
    variance (relative) within ``bound``, the bias within 1e-6."""
    devs, bound = [], _real(bound, "bound", 0.0)
    for run in run_sweep(("Q", "C"), (1, 2, 3), flip_angle_grid(), math.pi / 4, nu=10**15):
        if run.failed or _misflagged(run):
            devs.append(math.inf if _misflagged(run) else 0.0)
            continue
        predicted = 1.0 / (run.nu * predicted_qfi(run.probe_label, run.p, run.setting_k))
        bias = abs(run.phi_hat_mean - math.pi / 4) * (bound / 1e-6)
        cramer_rao = abs(run.nu * run.phi_hat_var * run.f_exp - 1.0)
        devs.append(max(bias, cramer_rao, abs(run.phi_hat_var - predicted) / predicted))
    return _result("exact-mode sweep: unbiased and Cramer-Rao saturated", devs, bound)


def check_unbiasedness_exact(bound) -> PropertyResult:
    """Q and C at three purities under every setting, one batch per true phase."""
    devs, bound = [], _real(bound, "bound", 0.0)
    grid = product(("Q", "C"), (1, 2, 3), (0.13, 0.5, 0.9))
    runs = [(ProbeFamily(label, (p,)), k, None) for label, k, p in grid]
    for phi_true in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
        for run in estimation.run_batch(runs, phi_true):
            if run.failed or _misflagged(run):
                devs.append(math.inf if _misflagged(run) else 0.0)
            else:
                devs.append(abs(run.phi_hat_mean - phi_true))
    return _result("exact-mode unbiasedness", devs, bound)


def check_noise_robustness(rng, n, bound) -> PropertyResult:
    """Probe Q, setting 1, 5 % noise: at most a ``bound`` share of the runs may
    miss pi/4 by more than 0.05 rad.  The ``n`` runs are one batch."""
    n, bound = _count(n, "n"), _real(bound, "bound", 0.0)
    families = [ProbeFamily("Q", (p,)) for p in flip_angle_grid() if p >= 0.3]
    run_seeds = rng.integers(0, 2**63 - 1, size=n)
    runs = [
        (families[i % len(families)], 1, NoiseSpec(0.05, seed))
        for i, seed in enumerate(run_seeds.tolist())
    ]
    hits = sum(
        not run.failed and abs(run.phi_hat_mean - math.pi / 4) <= 0.05
        for run in estimation.run_batch(runs, math.pi / 4)
    )
    miss_rate = (n - hits) / n if n else math.inf
    return PropertyResult(
        name="5 percent noise robustness",
        passed=miss_rate <= bound,
        trials=n,
        failures=n - hits,
        worst=miss_rate,
    )


def check_adaptive_convergence(rng, n, bound) -> PropertyResult:
    devs, n, bound = [], _count(n, "n"), _real(bound, "bound", 0.0)
    found = 0
    while found < n:
        label = "Q" if rng.uniform() < 0.5 else "C"
        p = rng.uniform(0.05, 1.0)
        k = int(rng.integers(1, 4))
        rho = make_probe(ProbeFamily(label, (p,)))
        ham = setting_hamiltonian(k)
        if qfi(rho, ham) <= 0.1:
            continue
        found += 1
        trials, converged = adaptive_localize(rho, ham, math.pi / 4, max_iters=5)
        devs.append(0.0 if converged and len(trials) <= 5 else 1.0)
    return _result("adaptive localization within five rounds", devs, bound)


# (child-seed family, check, base ensemble size, bound); deterministic checks
# have neither a family nor a size.
ALL_CHECKS = (
    (1, check_eig_roundtrip, 100, 1e-9),
    (2, check_partial_trace_factors, 50, 1e-9),
    (3, check_evolve_spectrum, 50, 1e-9),
    (4, check_fidelity_properties, 50, 1e-12),
    (5, check_oracle_equivalence, 200, 1e-12),
    (6, check_faithfulness, 50, 1e-9),
    (7, check_local_unitary_invariance, 100, 1e-9),
    (23, partial(check_local_unitary_invariance, d_b=3), 100, 1e-9),
    (24, partial(check_local_unitary_invariance, d_b=4), 100, 1e-9),
    (8, check_channel_monotonicity, 100, 1e-9),
    (25, partial(check_channel_monotonicity, d_b=3), 100, 1e-9),
    (26, partial(check_channel_monotonicity, d_b=4), 100, 1e-9),
    (9, check_pure_state_reduction, 50, 1e-6),
    (10, check_hierarchy, 500, 1e-10),
    (21, partial(check_hierarchy, d_b=3), 500, 1e-10),
    (22, partial(check_hierarchy, d_b=4), 500, 1e-10),
    (11, check_sld_equation, 25, 1e-9),
    (12, check_basis_independence, 30, 1e-10),
    (13, check_qfi_additive_invariance, 50, 1e-9),
    (None, check_probe_regression, None, 1e-9),
    (None, check_setting_landscape, None, 0.02),
    (None, check_guaranteed_precision, None, 1e-9),
    (None, check_exact_sweep, None, 1e-9),
    (None, check_unbiasedness_exact, None, 1e-6),
    (19, check_noise_robustness, 200, 0.05),
    (20, check_adaptive_convergence, 20, 0.5),
)


def run_all(seed: int = 0, scale: float = 1.0) -> list[PropertyResult]:
    """Run every property family; ``scale``, a real >= 0, multiplies the ensemble sizes."""
    seed, scale = _count(seed, "seed"), _real(scale, "scale", 0.0)
    results = []
    for family, check, base, bound in ALL_CHECKS:
        if family is None:
            results.append(check(bound))
        else:
            n = max(1, int(round(base * scale)))
            results.append(check(np.random.default_rng([seed, family]), n, bound))
    return results
