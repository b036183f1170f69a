"""Interferometric power, quantum Fisher information and worst-case phase estimation.

The library computes discord-type correlation measures of bipartite states
(interferometric power, local quantum uncertainty), the spectral machinery
behind them (QFI, symmetric logarithmic derivative), and simulates the
phase-estimation protocol in which the generator of the phase is disclosed
only after the probes are prepared.
"""

from .correlations import (
    SldDecomposition,
    interferometric_power,
    ip_bell_diagonal,
    ip_grid_search,
    local_quantum_uncertainty,
    min_local_variance,
    qfi,
    qfi_quadratic_form,
    qfi_sphere_grid,
    skew_grid_search,
    skew_information,
    sld,
)
from .estimation import (
    EstimationRun,
    LeastSquaresResult,
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
from .linalg import (
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    eig_hermitian,
    tensor,
)
from .probes import (
    ProbeFamily,
    bell_diagonal_state,
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
from .states import (
    DensityMatrix,
    LocalHamiltonian,
    evolve,
    hs_fidelity,
    load_state,
    partial_trace,
    save_state,
)

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix",
    "EstimationRun",
    "LeastSquaresResult",
    "LocalHamiltonian",
    "NoiseSpec",
    "PAULIS",
    "ProbeFamily",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SldDecomposition",
    "adaptive_localize",
    "bell_diagonal_state",
    "bell_probe",
    "classical_probe",
    "discordant_probe",
    "eig_hermitian",
    "estimator_statistics",
    "evolve",
    "flip_angle_grid",
    "hs_fidelity",
    "interferometric_power",
    "ip_bell_diagonal",
    "ip_grid_search",
    "least_squares_estimate",
    "load_state",
    "local_quantum_uncertainty",
    "make_probe",
    "measure_populations",
    "min_local_variance",
    "partial_trace",
    "population_model",
    "predicted_qfi",
    "qfi",
    "qfi_quadratic_form",
    "qfi_sphere_grid",
    "run_experiment",
    "run_sweep",
    "save_state",
    "separable_discordant_state",
    "setting_hamiltonian",
    "skew_grid_search",
    "skew_information",
    "sld",
    "sweep_csv_text",
    "sweep_json_text",
    "sweep_rows",
    "tensor",
    "werner_state",
]
