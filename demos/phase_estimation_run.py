#!/usr/bin/env python3
"""One full phase-estimation run, step by step.

Prepares a probe, encodes an unknown phase, measures in the SLD eigenbasis,
reconstructs the Fisher information from the populations, and infers the
phase by least squares.  Ends with the pathological classical case where the
estimation fails outright.
"""

import math

import numpy as np

from ipower import (
    NoiseSpec,
    ProbeFamily,
    classical_probe,
    discordant_probe,
    estimator_statistics,
    least_squares_estimate,
    measure_populations,
    population_model,
    qfi,
    run_experiment,
    setting_hamiltonian,
    sld,
)

PHI_TRUE = math.pi / 4
NU = 10**15

print("Step 1: probe preparation")
p = 0.5
rho = discordant_probe(p)
print(f"  discordant probe, p = {p}, purity {rho.purity():.4f}")

print("Step 2: the generator setting is disclosed")
ham = setting_hamiltonian(2)
print(f"  H = (sigma_x + sigma_y)/sqrt(2), Bloch direction {np.round(ham.bloch_vector, 4)}")
print(f"  QFI for this pair: {qfi(rho, ham):.6f} (analytic 4 p^2 = {4 * p * p:.6f})")

print("Step 3: optimal measurement basis (SLD eigenbasis at the working phase)")
reference = sld(rho, ham, PHI_TRUE)
print(f"  SLD eigenvalues: {np.round(reference.eigenvalues, 6)}")

print("Step 4: ensemble populations after encoding the true phase pi/4")
model = population_model(rho, ham, reference)
d = measure_populations(model, PHI_TRUE)
print(f"  d = {np.round(d, 6)}   (sum = {d.sum():.12f})")

f_exp = float(np.sum(reference.eigenvalues**2 * d))
print("Step 5: Fisher information reconstructed from the data")
print(f"  F = sum_j l_j^2 d_j = {f_exp:.9f}")

print("Step 6: least-squares phase inference")
fit = least_squares_estimate(d, model)
print(f"  phi_hat = {fit.phi_hat:.12f}  (true value {PHI_TRUE:.12f})")
print(f"  residual = {fit.residual:.3e}")

var = estimator_statistics(d, reference.eigenvalues, f_exp, NU)
print("Step 7: estimator variance over the ensemble")
print(f"  Var = {var:.6e}  =>  nu * Var * F = {NU * var * f_exp:.12f}")
print("  The Cramer-Rao bound is saturated exactly in exact mode.")

print()
print("With 5 percent population noise (seeded):")
noisy = run_experiment(ProbeFamily("Q", (p,)), 2, PHI_TRUE, NU, NoiseSpec(0.05, 7))
print(f"  phi_hat = {noisy.phi_hat_mean:.6f}, F_exp = {noisy.f_exp:.4f}, "
      f"nu*Var*F = {noisy.nu * noisy.phi_hat_var * noisy.f_exp:.4f}")

print()
print("The pathological pair: classical probe, worst-case generator")
worst = run_experiment(ProbeFamily("C", (0.8,)), 3, PHI_TRUE, NU)
print(f"  failed = {worst.failed}, F_exp = {worst.f_exp:.3e}")
classical, worst_ham = classical_probe(0.8), setting_hamiltonian(3)
base = measure_populations(
    population_model(classical, worst_ham, sld(classical, worst_ham, PHI_TRUE)), 0.0
)
print(f"  populations at phi = 0      : {np.round(base, 6)}")
print("  ... identical at every phase: no information is ever imprinted,")
print("  so no estimator can recover the phase in this setting.")
