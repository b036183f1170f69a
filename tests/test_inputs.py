"""The scalar rule, checked by one table of hostile values.

Each row of ``PARAMETERS`` is one scalar parameter of a public callable of ``ipower``,
``ipower.sampling`` or ``ipower.verify``: an id, a call passing the value there, the
error the parameter documents, a pattern of its name for the message, its kind (the
``KINDS`` values it is crossed with) and its own out-of-range values, the np.int16
extremes among them where it refuses them.  Every case must raise that error.
"""

import inspect
import math

import numpy as np
import pytest

from ipower import (
    DensityMatrix, LocalHamiltonian, NoiseSpec, ProbeFamily, adaptive_localize,
    bell_diagonal_state, classical_probe, discordant_probe, estimator_statistics, evolve,
    flip_angle_grid, ip_bell_diagonal, ip_grid_search, least_squares_estimate, make_probe,
    measure_populations, population_model, predicted_qfi, qfi_sphere_grid, run_experiment,
    run_sweep, setting_hamiltonian, sld, werner_state,
)
from ipower import sampling, verify
from ipower.errors import BadSettingError as S, DimensionMismatchError as D
from ipower.errors import InvalidCorrelationTripleError as T, ParameterOutOfRangeError as P
from ipower.estimation import run_batch

PI4 = math.pi / 4
LO, HI, HUGE = np.int16(-32768), np.int16(32767), 10**400
HOSTILE = [True, np.True_, 1j, 0.5 + 0j, "0.5", math.nan, math.inf, -math.inf]
KINDS = {"real": HOSTILE + [HUGE], "count": HOSTILE + [2.0], "entry": HOSTILE[5:]}
UNIT = [-0.1, 1.5, LO, HI]  # outside [0, 1]
NU = [-1, 0, 0.5, 2.5, LO]  # not a whole number >= 1
SEEDS = [-1, np.int64(-2), LO]
SIZES = [0, LO, HI, HUGE]  # below 1, or above a sampler's cap

RHO, HAM = discordant_probe(0.5), setting_hamiltonian(1)
MODEL = population_model(RHO, HAM, sld(RHO, HAM, PI4))
MIXED = DensityMatrix.from_matrix(np.eye(4) / 4.0, (2, 2))
Q = ProbeFamily("Q", (0.5,))
D4, L4 = [0.4, 0.3, 0.2, 0.1], [-2.0, -1.0, 1.0, 2.0]


def rng():
    return np.random.default_rng(0)


def check_call(check, arg):
    """A call of the property check ``check`` with good arguments but ``arg``."""
    good = {"rng": rng(), "n": 1, "bound": 1e-9, "d_b": 2}
    params = inspect.signature(check).parameters
    return lambda v: check(**{k: v if k == arg else x for k, x in good.items() if k in params})


def put(value, i, row):
    return [value if j == i else x for j, x in enumerate(row)]


# A phase takes both np.int16 extremes (outside a window they raise
# PhaseOutOfWindowError); nu, a seed and max_iters take the high one and any size.
PARAMETERS = [
    ("discordant_probe.p", discordant_probe, P, "p must", "real", UNIT),
    ("classical_probe.p", classical_probe, P, "p must", "real", UNIT),
    ("werner_state.f", werner_state, P, "f must", "real", UNIT),
    ("ProbeFamily.params", lambda v: make_probe(ProbeFamily("Q", (v,))), P, "params|p must",
     "real", UNIT),
    # A belldiag triple is checked by its tetrahedron rule when the probe is built.
    ("ProbeFamily.params-belldiag", lambda v: make_probe(ProbeFamily("belldiag", (v, 0.0, 0.0))),
     T, "correlation triple", "real", [1.5, LO, HI]),
    ("predicted_qfi.p", lambda v: predicted_qfi("Q", v, 1), P, "p must", "real", UNIT),
    ("predicted_qfi.k", lambda v: predicted_qfi("Q", 0.5, v), S, "setting", "count", [0, 4, LO]),
    ("setting_hamiltonian.k", setting_hamiltonian, S, "setting", "count",
     [0, 4, 2.9, np.complex64(2), LO, HI]),
    ("run_experiment.k", lambda v: run_experiment(Q, v, PI4), S, "setting", "count", [4, 1.5]),
    ("run_experiment.phi_true", lambda v: run_experiment(Q, 1, v), P, "phi_true", "real", []),
    ("run_experiment.nu", lambda v: run_experiment(Q, 1, PI4, v), P, "nu must", "real", NU),
    ("run_batch.phi_true", lambda v: run_batch([(Q, 1, None)], v), P, "phi_true", "real", []),
    ("run_sweep.settings", lambda v: run_sweep(["Q"], [v], [0.5], PI4), S, "setting", "count",
     [0, 2.9, LO, HI]),
    ("run_sweep.p_values", lambda v: run_sweep(["Q"], [1], [v], PI4), P, "p must", "real", UNIT),
    ("run_sweep.phi_true", lambda v: run_sweep(["Q"], [1], [0.5], v), P, "phi_true", "real", []),
    # Setting 3 fails every C run, and nu is still checked.
    ("run_sweep.nu", lambda v: run_sweep(["C"], [3], [0.5], PI4, nu=v), P, "nu must", "real", NU),
    ("run_sweep.sigma", lambda v: run_sweep(["Q"], [1], [0.5], PI4, sigma=v, seed=3), P, "sigma",
     "real", [-0.1, LO]),
    ("run_sweep.seed", lambda v: run_sweep(["Q"], [1], [0.5], PI4, sigma=0.05, seed=v), P, "seed",
     "count", SEEDS),
    ("NoiseSpec.sigma", lambda v: NoiseSpec(v, 3), P, "sigma", "real", [-0.1, LO]),
    # An exact spec drops its seed, but a bad one raises first.
    ("NoiseSpec.seed", lambda v: NoiseSpec(0.0, v), P, "seed", "count", SEEDS),
    ("estimator_statistics.f_exp", lambda v: estimator_statistics(D4, L4, v, 10), P, "f_exp",
     "real", []),
    ("estimator_statistics.nu", lambda v: estimator_statistics(D4, L4, 2.0, v), P, "nu must",
     "real", NU),
    ("estimator_statistics.d_meas", lambda v: estimator_statistics(put(v, 0, D4), L4, 2.0, 10), P,
     "d_meas", "entry", []),
    ("estimator_statistics.l_values", lambda v: estimator_statistics(D4, put(v, 3, L4), 2.0, 10),
     P, "l_values", "entry", []),
    ("least_squares_estimate.d_meas", lambda v: least_squares_estimate(put(v, 1, D4), MODEL), P,
     "d_meas", "entry", []),
    ("adaptive_localize.phi_true", lambda v: adaptive_localize(RHO, HAM, v), P, "phi_true",
     "real", []),
    ("adaptive_localize.max_iters", lambda v: adaptive_localize(RHO, HAM, PI4, v), P, "max_iters",
     "count", [0, -5, LO]),
    ("measure_populations.phi_true", lambda v: measure_populations(MODEL, v), P, "phi", "real", []),
    ("PopulationModel.at.phi", MODEL.at, P, "phi", "real", []),
    ("evolve.phi", lambda v: evolve(RHO, HAM, v), P, "phi", "real", []),
    ("sld.phi0", lambda v: sld(RHO, HAM, v), P, "phi", "real", []),
    ("LocalHamiltonian.phase_unitary.phi", HAM.phase_unitary, P, "phi", "real", []),
    ("LocalHamiltonian.from_bloch.n", lambda v: LocalHamiltonian.from_bloch([0.0, v, 0.0]), P,
     "Bloch vector entry", "real", []),
    ("flip_angle_grid.start_deg", lambda v: flip_angle_grid(start_deg=v), P, "start", "real",
     [90.5, HI]),
    ("flip_angle_grid.stop_deg", lambda v: flip_angle_grid(stop_deg=v), P, "stop", "real",
     [-1.0, LO]),
    ("flip_angle_grid.step_deg", lambda v: flip_angle_grid(step_deg=v), P, "step", "real",
     [0.0, -2.5, 1e-300, LO]),
    ("ip_grid_search.n_theta", lambda v: ip_grid_search(MIXED, v, 128), P, "n_theta|grid",
     "count", [-1, 63, *SIZES]),
    # 64 thetas by the 16384 half-grid columns of HI fill the cap exactly: HI is taken.
    ("ip_grid_search.n_phi", lambda v: ip_grid_search(MIXED, 64, v), P, "n_phi|grid", "count",
     [0, 63, LO, HUGE]),
    ("qfi_sphere_grid.n_theta", lambda v: qfi_sphere_grid(MIXED, v, 8), P, "n_theta", "count",
     [0, LO]),
    ("qfi_sphere_grid.n_phi", lambda v: qfi_sphere_grid(MIXED, 8, v), P, "n_phi", "count", [0, LO]),
    ("DensityMatrix.from_matrix.dims", lambda v: DensityMatrix.from_matrix(MIXED.matrix, (v, 2)),
     D, "dims", "count", SIZES),
    ("sampling.haar_unitary.dim", lambda v: sampling.haar_unitary(v, rng()), P, "dim", "count",
     [4097, *SIZES]),
    ("sampling.random_pure_state.dim", lambda v: sampling.random_pure_state(v, rng()), P, "dim",
     "count", [4097**2, 0, LO, HUGE]),
    ("sampling.random_density_matrix.env_dim",
     lambda v: sampling.random_density_matrix((2, 2), rng(), v), P, "env_dim", "count",
     [4096**2 // 4 + 1, 0, LO, HUGE]),
    ("sampling.random_probability_vector.n",
     lambda v: sampling.random_probability_vector(v, rng()), P, r"\bn must", "count", [0, LO]),
    # dim * m, m drawn in 1..3, must fit haar_unitary's cap.
    ("sampling.random_isometry_kraus.dim", lambda v: sampling.random_isometry_kraus(v, rng()), P,
     "dim", "count", SIZES),
    ("sampling.depolarizing_kraus.strength", sampling.depolarizing_kraus, P, "strength", "real",
     [-0.1, 2.0, LO, HI]),
    ("sampling.amplitude_damping_kraus.gamma", sampling.amplitude_damping_kraus, P, "gamma",
     "real", UNIT),
    # Bad values only: a good seed and scale run every property family.
    ("verify.run_all.seed", lambda v: verify.run_all(v, 0.0), P, "seed", "count", [-1, LO]),
    ("verify.run_all.scale", lambda v: verify.run_all(0, v), P, "scale", "real", [-0.5, LO]),
] + [
    # Bad values only for the checks too: each takes its scalars before any draw.
    (f"verify.{name}.{arg}", check_call(check, arg), P, rf"\b{arg} must",
     "real" if arg == "bound" else "count", [-1, LO])
    for name, check in vars(verify).items() if name.startswith("check_")
    for arg in ("n", "bound", "d_b") if arg in inspect.signature(check).parameters
] + [
    (f"sampling.{draw.__name__}.dims", lambda v, draw=draw: draw((2, v), rng()), D, "dims",
     "count", [2049, *SIZES])
    for draw in (sampling.random_density_matrix, sampling.random_pure_density_matrix,
                 sampling.random_classical_quantum_state, sampling.random_classical_classical_state)
] + [
    (f"{build.__name__}.c{i + 1}", lambda v, i=i, build=build: build(*put(v, i, [0.1, 0.2, 0.3])),
     T, f"c{i + 1} must|correlation triple", "real", [1.5, LO, HI])
    for build in (bell_diagonal_state, ip_bell_diagonal)
    for i in range(3)
]

NAMES = {id(LO): "int16_min", id(HI): "int16_max", id(HUGE): "10**400"}


@pytest.mark.parametrize(
    "call, error, pattern, value",
    [
        pytest.param(
            call, error, pattern, value,
            id=f"{name}-{NAMES.get(id(value)) or f'{type(value).__name__}({value!r})'}",
        )
        for name, call, error, pattern, kind, own in PARAMETERS
        for value in KINDS[kind] + own
    ],
)
def test_a_hostile_value_raises_the_parameters_error(call, error, pattern, value):
    with pytest.raises(error, match=pattern):
        call(value)


def test_numpy_and_large_values_in_range_are_taken_as_python_numbers():
    # Numpy scalars, the np.int16 extremes and counts of any size are taken where
    # the rule and the range allow them, and give what Python numbers give.
    spec = NoiseSpec(np.float64(0.05), HUGE)
    assert spec.seed == HUGE and type(spec.sigma) is float
    assert NoiseSpec(0.05, np.uint64(2**64 - 1)).seed == 2**64 - 1
    assert np.array_equal(HAM.phase_unitary(HI), HAM.phase_unitary(32767.0))
    assert np.array_equal(flip_angle_grid(LO, 0.0, HI), flip_angle_grid(-32768.0, 0.0, 32767.0))
    assert run_experiment(Q, np.int64(2), PI4, HI) == run_experiment(Q, 2, PI4, 32767)
    assert adaptive_localize(RHO, HAM, PI4, HUGE) == adaptive_localize(RHO, HAM, PI4, 10)
    assert estimator_statistics(D4, L4, HI, HI) == estimator_statistics(D4, L4, 32767.0, 32767)
    # 200 * 200 grid points wrap to -25536 in np.int16.
    assert qfi_sphere_grid(MIXED, np.int16(200), np.int16(200))[2].shape == (200, 200)
    rho = DensityMatrix.from_matrix(np.eye(6) / 6.0, (np.int64(2), np.int32(3)))
    assert rho.dims == (2, 3) and type(rho.d_b) is int
