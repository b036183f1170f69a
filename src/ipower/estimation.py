"""End-to-end phase estimation in the worst-case (undisclosed generator) protocol.

A run encodes a true phase into a probe with a local generator, measures the
populations in the eigenbasis of the symmetric logarithmic derivative at a
reference phase, reconstructs the Fisher information from the measured
populations and the design eigenvalues, and infers the phase by least squares.
In exact mode the populations are the ideal ensemble expectation values; in
noisy mode each population receives an independent relative Gaussian
perturbation before renormalization.

The population model and the least-squares fit are closed form.  A qubit
generator with spectral projectors (P_1, P_2) and spectrum (h_1, h_2) imprints
the phase through theta = omega phi, omega = h_2 - h_1, so every population is
a first-order Fourier series d(theta) = a + b cos(theta) + c sin(theta), built
once per measurement by :func:`population_model` and shared by the measurement
and the fit.  The stationary points of the
objective are the angles of the roots of one quartic in z = exp(i theta), each
replaced by the mean of its root cluster.  Phases are searched and
reported in the window [0, pi/omega]; a true phase outside [0, pi/omega) could
alias onto it (for some probes the data at phi and phi - pi/omega coincide), so
the protocol rejects it with :class:`PhaseOutOfWindowError`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .correlations import SldDecomposition, qfi, sld
from .errors import (
    BasisMismatchError,
    NotIdentifiableError,
    ParameterOutOfRangeError,
    PhaseOutOfWindowError,
    SubsystemANotQubitError,
    ZeroInformationError,
)
from .linalg import apply_local
from .probes import SWEPT_LABELS, ProbeFamily, setting_hamiltonian
from .states import DensityMatrix, LocalHamiltonian

# Fisher information (or least-squares range) below this cutoff counts as the
# analytic zero of a pathological setting rather than numerical dust.
FLAT_CUTOFF = 1e-10

# The adaptive loop has converged once a trial is this close to the true phase.
LOCALIZED_WITHIN = 1e-6

# np.roots is backward stable (exact roots of coefficients off by ~eps), so a
# root z0 of multiplicity m splits by (eps ||p||_1 / |p^(m)(z0)/m!|)^(1/m).  Here
# m <= 3: the z^2 coefficient is 0, so a triple root z0 forces the fourth to -z0,
# and on the unit circle that ratio is 3, a split of (3 eps)^(1/3) = 8.7e-6.
# Roots closer than the split at a backward error of 1000 eps form one cluster.
_ROOT_CLUSTER = (3000.0 * np.finfo(float).eps) ** (1.0 / 3.0)

SWEEP_COLUMNS = (
    "s",
    "k",
    "p",
    "f_exp_over_4",
    "ip",
    "var",
    "nu_var_product",
    "phi_hat",
    "failed",
)

# Columns of the four files ``ipower figure3 --out P`` writes as P_<name>.<fmt>;
# in JSON the sweep file holds the full run records instead.
FIGURE3_COLUMNS = {
    "sweep": SWEEP_COLUMNS,
    "precision": ("s", "k", "p", "f_exp_over_4", "ip"),
    "variance": ("s", "k", "p", "var", "nu_var_product"),
    "mean": ("s", "k", "p", "phi_hat", "failed"),
}


@dataclass(frozen=True)
class NoiseSpec:
    """Relative Gaussian population noise of width ``sigma``, seeded for replay."""

    sigma: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma!r}")
        if self.sigma == 0:  # exact mode draws nothing, so it has no seed
            object.__setattr__(self, "seed", None)


@dataclass(frozen=True)
class LeastSquaresResult:
    phi_hat: float
    residual: float
    failed: bool


@dataclass(frozen=True)
class EstimationRun:
    """Record of one protocol instance.

    ``phi_hat_mean`` and ``phi_hat_var`` are ``None`` when the run failed
    (flat least-squares landscape or vanishing Fisher information).  ``ip`` is
    the interferometric power of the probe; the JSON record leaves it out.
    """

    probe_label: str
    p: float
    setting_k: int
    phi0: float
    nu: int
    d_meas: tuple[float, ...]
    l_values: tuple[float, ...]
    phi_hat_mean: float | None
    phi_hat_var: float | None
    f_exp: float
    failed: bool
    seed: int | None
    ip: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "probe_label": self.probe_label,
            "p": round12(self.p),
            "setting_k": self.setting_k,
            "phi0": round12(self.phi0),
            "nu": self.nu,
            "d_meas": [round12(x) for x in self.d_meas],
            "l_values": [round12(x) for x in self.l_values],
            "phi_hat_mean": round12(self.phi_hat_mean),
            "phi_hat_var": round12(self.phi_hat_var),
            "f_exp": round12(self.f_exp),
            "failed": self.failed,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class PopulationModel:
    """Populations d(phi) = a + b cos(omega phi) + c sin(omega phi) of one
    measurement, built by :func:`population_model`."""

    omega: float
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def at(self, phi: float) -> np.ndarray:
        """Populations <lambda_j|U rho U†|lambda_j>, U = exp(-i phi H); phi must be finite."""
        if not math.isfinite(phi):
            raise ParameterOutOfRangeError(f"phase must be finite, got {phi!r}")
        theta = self.omega * phi
        return self.a + self.b * math.cos(theta) + self.c * math.sin(theta)


def population_model(
    rho: DensityMatrix, ham: LocalHamiltonian, basis: SldDecomposition
) -> PopulationModel:
    """The population model of ``rho`` under the qubit generator ``ham`` read in
    ``basis`` W.  With P_k the generator's spectral projectors,
    U = sum_k exp(-i phi h_k) P_k, so a = diag W†(P_1 rho P_1 + P_2 rho P_2)W
    and b - i c = 2 diag W† P_1 rho P_2 W, P_k acting as P_k x I."""
    omega = _frequency(ham)
    if basis.dim != rho.dim:
        raise BasisMismatchError(
            f"measurement basis dimension {basis.dim} != state dimension {rho.dim}"
        )
    e = ham.eigenvectors.T
    y = apply_local(e[:, :, None] * e.conj()[:, None, :], basis.eigenbasis, rho.dims)
    ry = rho.matrix @ y  # y[k] = (P_k x I) W, P_k = e_k e_k†
    a = np.sum(y[0].conj() * ry[0] + y[1].conj() * ry[1], axis=0).real
    x = 2.0 * np.sum(y[0].conj() * ry[1], axis=0)
    return PopulationModel(omega, a, x.real, -x.imag)


def measure_populations(
    model: PopulationModel, phi_true: float, noise: NoiseSpec | None = None
) -> np.ndarray:
    """Ensemble populations of the state encoded at ``phi_true``, read off ``model``.

    Exact mode (no noise, or sigma == 0) returns the ideal expectation values;
    noisy mode perturbs each population by an independent zero-mean Gaussian of
    relative width sigma, clamps to [0, 1] and renormalizes.
    """
    d = model.at(phi_true)
    if noise is None or noise.sigma == 0.0:
        return d
    rng = np.random.default_rng(noise.seed)
    d = d * (1.0 + noise.sigma * rng.standard_normal(d.size))
    d = np.clip(d, 0.0, 1.0)
    total = d.sum()
    if total <= 0.0:
        return np.full(d.size, 1.0 / d.size)
    return d / total


def _frequency(ham: LocalHamiltonian) -> float:
    """omega = h_2 - h_1 of a qubit generator: the populations depend on omega phi."""
    if ham.d_a != 2:
        raise SubsystemANotQubitError(
            f"the population model needs a qubit generator, got dimension {ham.d_a}"
        )
    return float(ham.spectrum[1] - ham.spectrum[0])


def _check_in_window(ham: LocalHamiltonian, phi_true: float) -> None:
    """Reject a true phase outside the identifiability window [0, pi/omega)."""
    end = math.pi / _frequency(ham)
    if not 0.0 <= phi_true < end:
        raise PhaseOutOfWindowError(
            f"phase {phi_true:.12g} lies outside the window [0, {end:.12g}) = "
            "[0, pi/omega) in which the generator's phase is identified"
        )


def least_squares_estimate(d_meas: np.ndarray, model: PopulationModel) -> LeastSquaresResult:
    """Phase inference by least squares against ``model``, in closed form.

    With theta = omega phi, the model is d(theta) = a + b cos(theta) +
    c sin(theta), the one the populations were measured from.  With
    alpha = a - d_meas the objective f(theta) = |d(theta) - d_meas|^2 has the
    derivative A cos(theta) + B sin(theta) + C cos(2 theta) + D sin(2 theta),
    A = 2 alpha.c, B = -2 alpha.b, C = 2 b.c and D = c.c - b.b.  Times 2 z^2
    it is a quartic in z = exp(i theta).  Every root, on the unit circle or
    not, is replaced by the mean of the roots within ``_ROOT_CLUSTER`` of it:
    a triple root splits by about eps^(1/3), its cluster's mean is exact to eps.

    f is evaluated exactly at the angles of these means inside the window
    [0, pi/omega] and at both of its ends; these include its minimum and
    maximum on the window.  When the range of f there is below
    ``FLAT_CUTOFF`` the landscape is flat and the result is flagged failed.
    So is a fit whose omega, or the bound b and c set on the range of f over
    the whole circle, is below the cutoff, before any root is sought, with
    f(0) as its residual.  Otherwise ``phi_hat`` is the smallest phase whose
    value lies within 1e-12 of the range above the minimum, since exactly
    symmetric populations can zero the objective at two phases.
    """
    d_meas = np.asarray(d_meas, dtype=float)
    if d_meas.size != model.a.size:
        raise BasisMismatchError(
            f"got {d_meas.size} populations for dimension {model.a.size}"
        )
    if not np.all(np.isfinite(d_meas)):
        raise ParameterOutOfRangeError(f"populations must be finite, got {d_meas}")
    omega, b, c = model.omega, model.b, model.c
    alpha = model.a - d_meas
    amp = math.sqrt(b @ b + c @ c)  # |b cos + c sin| <= amp bounds the range of f
    bound = 2.0 * (2.0 * math.sqrt(alpha @ alpha) * amp + amp * amp)
    if min(omega, bound) <= FLAT_CUTOFF:
        return LeastSquaresResult(math.nan, float((alpha + b) @ (alpha + b)), True)
    A, B = 2.0 * (alpha @ c), -2.0 * (alpha @ b)
    C, D = 2.0 * (b @ c), c @ c - b @ b
    roots = np.roots([C - 1j * D, A - 1j * B, 0.0, A + 1j * B, C + 1j * D])
    near = np.abs(roots[:, None] - roots[None, :]) <= _ROOT_CLUSTER
    theta = np.angle(near @ roots / near.sum(axis=1)) % (2.0 * math.pi)
    theta = np.concatenate(([0.0, math.pi], theta[theta <= math.pi]))

    residuals = alpha + np.outer(np.cos(theta), b) + np.outer(np.sin(theta), c)
    values = np.sum(residuals * residuals, axis=1)
    spread = values.max() - values.min()
    if spread < FLAT_CUTOFF:
        return LeastSquaresResult(math.nan, float(values.min()), True)
    tied = values <= values.min() + 1e-12 * spread
    best = int(np.argmin(np.where(tied, theta, np.inf)))
    return LeastSquaresResult(float(theta[best] / omega), float(values[best]), False)


def _require_ensemble_size(nu: float) -> None:
    if not (math.isfinite(nu) and nu >= 1 and nu == math.floor(nu)):
        raise ParameterOutOfRangeError(f"nu must be finite and >= 1 and whole, got {nu!r}")


def estimator_statistics(
    d_meas: np.ndarray, l_values: np.ndarray, f_exp: float, nu: float
) -> float:
    """Variance of the optimal estimator over an ensemble of ``nu`` probes.

    Var = [sum_j l_j^2 d_j - (sum_j l_j d_j)^2] / (nu f_exp^2); with exact
    populations at the reference phase the linear term vanishes and the
    variance reduces to 1 / (nu f_exp).  ``nu`` must be a whole number >= 1
    and ``f_exp`` finite.
    """
    _require_ensemble_size(nu)
    if not math.isfinite(f_exp):
        raise ParameterOutOfRangeError(f"f_exp must be finite, got {f_exp!r}")
    if f_exp <= FLAT_CUTOFF:
        raise ZeroInformationError(
            f"reconstructed Fisher information {f_exp:.3e} is below {FLAT_CUTOFF:g}"
        )
    d = np.asarray(d_meas, dtype=float)
    l = np.asarray(l_values, dtype=float)
    second = float(np.sum(l * l * d))
    first = float(np.sum(l * d))
    return (second - first * first) / (nu * f_exp * f_exp)


def adaptive_localize(
    rho: DensityMatrix,
    ham: LocalHamiltonian,
    phi_true: float,
    max_iters: int = 10,
) -> tuple[list[float], bool]:
    """Iterative localization of the phase, refining the measurement basis.

    Starts from a trial phase of zero; each round measures (exactly) in the
    SLD eigenbasis at the current trial phase and replaces the trial with the
    least-squares estimate.  Returns the trial sequence and whether some trial
    came within ``LOCALIZED_WITHIN`` of the true phase.  Raises
    :class:`PhaseOutOfWindowError` when ``phi_true`` lies outside [0, pi/omega).
    """
    if qfi(rho, ham) <= FLAT_CUTOFF:
        raise NotIdentifiableError("QFI vanishes for this probe and generator")
    _check_in_window(ham, phi_true)
    trials = [0.0]
    converged = abs(trials[0] - phi_true) < LOCALIZED_WITHIN
    while not converged and len(trials) < max_iters:
        model = population_model(rho, ham, sld(rho, ham, trials[-1]))
        result = least_squares_estimate(measure_populations(model, phi_true), model)
        if result.failed:
            break
        trials.append(result.phi_hat)
        converged = abs(trials[-1] - phi_true) < LOCALIZED_WITHIN
    return trials, converged


def run_experiment(
    probe: ProbeFamily,
    k: int,
    phi_true: float,
    nu: float = 10**15,
    noise: NoiseSpec | None = None,
) -> EstimationRun:
    """One full protocol instance for a probe family and generator setting.

    The measurement basis is the SLD eigenbasis at the true phase (the
    adaptive pre-localization is assumed to have converged there).  The
    probe's state and interferometric power are read from ``probe.state`` and
    ``probe.power``, so runs that share one family object build them once.
    Raises :class:`PhaseOutOfWindowError` when ``phi_true`` lies outside the
    window [0, pi/omega) of the setting's generator, [0, pi/2) for settings
    1-3, and :class:`ParameterOutOfRangeError` when ``nu`` is not a whole
    number >= 1.
    """
    _require_ensemble_size(nu)
    noise = noise or NoiseSpec()
    rho = probe.state
    ham = setting_hamiltonian(k)
    _check_in_window(ham, phi_true)
    reference = sld(rho, ham, phi_true)
    model = population_model(rho, ham, reference)
    populations = measure_populations(model, phi_true, noise)
    l_values = reference.eigenvalues
    f_exp = float(np.sum(l_values**2 * populations))
    fit = least_squares_estimate(populations, model)
    failed = fit.failed or f_exp <= FLAT_CUTOFF
    if failed:
        mean, var = None, None
    else:
        mean = fit.phi_hat
        var = estimator_statistics(populations, l_values, f_exp, nu)
    return EstimationRun(
        probe_label=probe.label,
        p=probe.p,
        setting_k=int(k),
        phi0=float(phi_true),
        nu=int(nu),
        d_meas=tuple(float(x) for x in populations),
        l_values=tuple(float(x) for x in l_values),
        phi_hat_mean=mean,
        phi_hat_var=var,
        f_exp=f_exp,
        failed=failed,
        seed=noise.seed,
        ip=probe.power,
    )


def run_sweep(
    labels,
    settings,
    p_values,
    phi_true: float,
    nu: float = 10**15,
    sigma: float = 0.0,
    seed: int | None = None,
) -> list[EstimationRun]:
    """Protocol runs over every (probe label, setting, p) combination.

    Rows are ordered by (label, setting, p); per-run noise seeds are derived
    from the root seed in that fixed order, so the output never depends on
    evaluation order.  Each distinct probe family is built once and shared by
    all its settings; families without parameters (``sep``, ``bell``) are
    built once per sweep.  ``sigma`` and ``nu`` are checked before any run,
    so an empty sweep rejects them too.
    """
    NoiseSpec(sigma)
    _require_ensemble_size(nu)
    combos = [
        (label, int(k), float(p))
        for label in sorted(labels)
        for k in sorted(settings)
        for p in sorted(np.asarray(p_values, dtype=float))
    ]
    root = np.random.default_rng(seed)
    run_seeds = root.integers(0, 2**63 - 1, size=len(combos))
    families: dict[ProbeFamily, ProbeFamily] = {}
    runs = []
    for (label, k, p), run_seed in zip(combos, run_seeds):
        family = ProbeFamily(label, (p,) if label in SWEPT_LABELS else ())
        family = families.setdefault(family, family)
        runs.append(run_experiment(family, k, phi_true, nu, NoiseSpec(sigma, int(run_seed))))
    return runs


def round12(x) -> float | None:
    """Round to 12 significant digits for stable, readable output files."""
    if x is None or math.isnan(x):
        return None
    return float(f"{float(x):.12g}")


def fmt12(x) -> str:
    """12 significant digits; a missing value (None) prints as nan."""
    if x is None:
        return "nan"
    return f"{float(x):.12g}"


def sweep_rows(runs: list[EstimationRun]) -> list[dict]:
    """Tabular view of a sweep, one dict per run with the documented columns."""
    rows = []
    for run in runs:
        nu_var = None if run.phi_hat_var is None else run.nu * run.phi_hat_var
        rows.append(
            {
                "s": run.probe_label,
                "k": run.setting_k,
                "p": run.p,
                "f_exp_over_4": run.f_exp / 4.0,
                "ip": run.ip,
                "var": run.phi_hat_var,
                "nu_var_product": nu_var,
                "phi_hat": run.phi_hat_mean,
                "failed": run.failed,
            }
        )
    rows.sort(key=lambda r: (r["s"], r["k"], r["p"]))
    return rows


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (str, int)):
        return str(value)
    return fmt12(value)


def rows_text(rows: list[dict], columns: tuple[str, ...], fmt: str) -> str:
    """Render :func:`sweep_rows` output restricted to ``columns``, as CSV or JSON.

    Each cell's form follows its Python type: strings and integers as they
    are, booleans as true / false, and floats with 12 significant digits; a
    missing value (None) or NaN is ``nan`` in CSV and ``null`` in JSON.  The
    CSV decimal separator is always '.' and the field separator ','.
    """
    if fmt == "json":
        payload = [
            {c: row[c] if isinstance(row[c], (str, int)) else round12(row[c]) for c in columns}
            for row in rows
        ]
        return json.dumps(payload, indent=1) + "\n"
    lines = [",".join(columns)]
    lines += [",".join(_csv_cell(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def sweep_csv_text(runs: list[EstimationRun]) -> str:
    """Render a sweep as CSV with the fixed column schema."""
    return rows_text(sweep_rows(runs), SWEEP_COLUMNS, "csv")


def sweep_json_text(runs: list[EstimationRun]) -> str:
    """Render a sweep as a JSON array of run records (sorted by s, k, p)."""
    ordered = sorted(runs, key=lambda r: (r.probe_label, r.setting_k, r.p))
    return json.dumps([run.to_json_dict() for run in ordered], indent=1) + "\n"


def figure3_texts(runs: list[EstimationRun], fmt: str) -> dict[str, str]:
    """The four figure-3 files of a sweep as ``{name: text}``, in ``FIGURE3_COLUMNS`` order."""
    rows = sweep_rows(runs)
    return {
        name: (
            sweep_json_text(runs)
            if fmt == "json" and name == "sweep"
            else rows_text(rows, columns, fmt)
        )
        for name, columns in FIGURE3_COLUMNS.items()
    }
