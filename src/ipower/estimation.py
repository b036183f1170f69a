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

import math
from dataclasses import dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from .correlations import SldDecomposition, _sld_stack, qfi, sld
from .errors import (
    BasisMismatchError,
    NotIdentifiableError,
    ParameterOutOfRangeError,
    PhaseOutOfWindowError,
    SubsystemANotQubitError,
    ZeroInformationError,
)
from .linalg import (
    FISHER_CUTOFF,
    FREQUENCY_CUTOFF,
    LOCALIZED_WITHIN,
    RANGE_CUTOFF,
    ROOT_CLUSTER,
    TIE_BAND,
    _count,
    _real,
    apply_local,
)
from .probes import SWEPT_LABELS, ProbeFamily, _setting_index, build_probes, setting_hamiltonian
from .states import DensityMatrix, LocalHamiltonian, _require_single

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

# The fields of a run's JSON record, in order, as (field, cell kind, the sweep
# column that holds the same cells or None); the kinds are those of _CELLS.
RECORD_FIELDS = (
    ("probe_label", "str", None),
    ("p", "float", "p"),
    ("setting_k", "int", None),
    ("phi0", "float", None),
    ("nu", "int", None),
    ("d_meas", "floats", None),
    ("l_values", "floats", None),
    ("phi_hat_mean", "float", "phi_hat"),
    ("phi_hat_var", "float", "var"),
    ("f_exp", "float", None),
    ("failed", "bool", None),
    ("seed", "int", None),
)


@dataclass(frozen=True)
class NoiseSpec:
    """Relative Gaussian population noise of width ``sigma``, seeded for replay.

    ``sigma`` is a real >= 0 and the seed None or a count >= 0 of any size
    (README, "Tolerances"), kept as Python numbers; a bad seed raises at sigma 0 too."""

    sigma: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "sigma", _real(self.sigma, "sigma", 0.0))
        if self.seed is not None:
            object.__setattr__(self, "seed", _count(self.seed, "seed"))
        if self.sigma == 0:  # exact mode draws nothing, so it has no seed
            object.__setattr__(self, "seed", None)


def _frozen(cls, **fields):
    """``cls(**fields)`` of a frozen dataclass, every field given and already
    checked: its ``__init__`` would set each through ``object.__setattr__``."""
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


@dataclass(frozen=True)
class LeastSquaresResult:
    """A fit of :func:`least_squares_estimate`: ``failed`` (omega at most
    ``FREQUENCY_CUTOFF``, or an objective flat within ``RANGE_CUTOFF``) exactly when
    ``phi_hat`` is NaN.  ``residual`` is the objective at ``phi_hat``; if failed, at
    phase 0 when no root was sought, else the least value found."""

    phi_hat: float
    residual: float
    failed: bool


@dataclass(frozen=True)
class EstimationRun:
    """Record of one protocol instance.

    ``phi_hat_mean`` and ``phi_hat_var`` are ``None`` when the run failed
    (flat least-squares landscape or vanishing Fisher information), and ``p``
    is ``None`` for a family without parameters (``sep``, ``bell``); output
    files print each None as nan (CSV) or null (JSON).  ``ip`` is the probe's
    interferometric power; the JSON record (``RECORD_FIELDS``) leaves it out.
    """

    probe_label: str
    p: float | None
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
        """The JSON record: the fields of ``RECORD_FIELDS`` in order, floats by :func:`round12`."""
        record = {}
        for field, kind, _ in RECORD_FIELDS:
            value = getattr(self, field)
            if kind == "float":
                value = round12(value)
            elif kind == "floats":
                value = [round12(x) for x in value]
            record[field] = value
        return record


@dataclass(frozen=True)
class PopulationModel:
    """Populations d(phi) = a + b cos(omega phi) + c sin(omega phi) of one
    measurement, built by :func:`population_model`."""

    omega: float
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def at(self, phi: float) -> np.ndarray:
        """Populations <lambda_j|U rho U†|lambda_j>, U = exp(-i phi H), phi a finite real."""
        return _fourier(self.omega * _real(phi, "phi"), self.a, self.b, self.c)


def _fourier(theta, a, b, c) -> np.ndarray:
    """a + b cos(theta) + c sin(theta), theta broadcasting against a, b and c."""
    return a + b * np.cos(theta) + c * np.sin(theta)


def population_model(
    rho: DensityMatrix, ham: LocalHamiltonian, basis: SldDecomposition
) -> PopulationModel:
    """The population model of ``rho`` under the qubit generator ``ham`` read in
    ``basis`` W.  With P_k the generator's spectral projectors,
    U = sum_k exp(-i phi h_k) P_k, so a = diag W†(P_1 rho P_1 + P_2 rho P_2)W
    and b - i c = 2 diag W† P_1 rho P_2 W, P_k acting as P_k x I.

    :func:`run_batch` builds the models of a whole sweep in one :func:`_population_stack`.
    """
    _require_single(rho)
    omega = _frequency(ham)
    if basis.dim != rho.dim:
        raise BasisMismatchError(
            f"measurement basis dimension {basis.dim} != state dimension {rho.dim}"
        )
    return PopulationModel(omega, *_population_stack(rho, ham.eigenvectors, basis.eigenbasis))


def _population_stack(rho: DensityMatrix, generator_vecs, basis):
    """(a, b, c) of :func:`population_model` for a state, the generator's
    eigenvector columns and measurement bases that may carry one leading stack
    axis of runs; a, b and c then have one row per run."""
    e = generator_vecs.swapaxes(-1, -2)
    projectors = e[..., :, :, None] * e.conj()[..., :, None, :]
    y = apply_local(projectors, basis[..., None, :, :], rho.dims)
    ry = rho.matrix[..., None, :, :] @ y  # y[k] = (P_k x I) W, P_k = e_k e_k†
    y0, y1, ry0, ry1 = y[..., 0, :, :], y[..., 1, :, :], ry[..., 0, :, :], ry[..., 1, :, :]
    a = (y0.conj() * ry0 + y1.conj() * ry1).sum(axis=-2).real
    x = 2.0 * (y0.conj() * ry1).sum(axis=-2)
    return a, x.real, -x.imag


def measure_populations(
    model: PopulationModel, phi_true: float, noise: NoiseSpec | None = None
) -> np.ndarray:
    """Ensemble populations of the state encoded at ``phi_true``, read off ``model``.

    Exact mode (no noise, or sigma == 0) returns the ideal expectation values;
    noisy mode perturbs each population by an independent zero-mean Gaussian of
    relative width sigma, clamps to [0, 1] and renormalizes.  The draws are
    those of ``np.random.default_rng(noise.seed).standard_normal``, as a
    batch's are (:func:`_standard_normal_rows`).
    """
    d = model.at(phi_true)
    if noise is None or noise.sigma == 0.0:
        return d
    return _perturb(d, noise.sigma, _standard_normal_rows([noise.seed], d.size)[0])


def _perturb(d, sigma, draws) -> np.ndarray:
    """d (1 + sigma draws) clamped to [0, 1] and renormalized, row by row; a row
    that clamps to all zeros becomes uniform."""
    d = np.clip(d * (1.0 + sigma * draws), 0.0, 1.0)
    total = d.sum(axis=-1, keepdims=True)
    uniform = np.full_like(d, 1.0 / d.shape[-1])
    return np.divide(d, total, out=uniform, where=total > 0.0)


def _standard_normal_rows(seeds, d: int) -> np.ndarray:
    """An (N, d) array whose row i is ``np.random.default_rng(seeds[i]).standard_normal(d)``,
    for N seeds each None or a non-negative integer: every run draws its own
    seeded stream, so its draws do not depend on the other seeds."""
    draws = np.empty((len(seeds), d))
    for row, seed in zip(draws, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    return draws


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
    it is a quartic in z = exp(i theta), whose roots are those ``np.roots``
    finds.  Every root, on the unit circle or
    not, is replaced by the mean of the roots within ``ROOT_CLUSTER`` of it:
    a triple root splits by about eps^(1/3), its cluster's mean is exact to eps.

    f is evaluated exactly at the angles of these means inside the window
    [0, pi/omega] and at both of its ends; these include its minimum and
    maximum on the window.  When the range of f there is below
    ``RANGE_CUTOFF`` the landscape is flat and the result is flagged failed.
    So is a fit whose omega is at most ``FREQUENCY_CUTOFF``, or whose bound b
    and c set on the range of f over the whole circle is at most
    ``RANGE_CUTOFF``, before any root is sought, with f(0) as its residual.
    Otherwise ``phi_hat`` is the smallest phase whose value lies within
    ``TIE_BAND`` times the range above the minimum, since exactly symmetric
    populations can zero the objective at two phases.

    This is :func:`_fit_stack` of one row, which :func:`run_batch` calls on a
    whole sweep.  One fit takes its bound and quartic from scalars, each dot
    the same BLAS dot on the same view, so it skips the stack's small-array
    dispatch; it shares the stack's root finding and scan, so its bits are
    those of the row.
    """
    d_meas = np.asarray(d_meas, dtype=float)
    if d_meas.shape != model.a.shape:
        raise BasisMismatchError(
            f"got populations of shape {d_meas.shape} for dimension {model.a.size}"
        )
    _require_finite("d_meas", d_meas)
    omega, alpha, b, c = model.omega, model.a - d_meas, model.b, model.c
    bb, cc = b @ b, c @ c
    amp = math.sqrt(bb + cc)
    bound = 2.0 * (2.0 * math.sqrt(alpha @ alpha) * amp + amp * amp)
    if omega <= FREQUENCY_CUTOFF or bound <= RANGE_CUTOFF:
        return LeastSquaresResult(math.nan, float((alpha + b) @ (alpha + b)), True)
    A, B = 2.0 * (alpha @ c), -2.0 * (alpha @ b)
    C, D = 2.0 * (b @ c), cc - bb
    iB, iD = _I * B, _I * D
    coeffs = np.array([[C - iD, A - iB, 0.0, A + iB, C + iD]])
    zeros = 0 if coeffs[0, 0] else 1 if coeffs[0, 1] else 2
    roots = _companion_roots(coeffs[:, _REDUCED[zeros]])
    phi_hat, residual, flat = _scan_roots(roots, alpha[None], b[None], c[None], np.array([omega]))
    return LeastSquaresResult(
        math.nan if flat[0] else float(phi_hat[0]), float(residual[0]), bool(flat[0])
    )


# np.roots strips a zero leading coefficient C - iD, and with it the last,
# C + iD, its conjugate, which leaves a root at 0 that is not kept: the roots of
# the reduced (A - iB) z^2 + (A + iB) have modulus 1, so it clusters only with
# itself, and its angle 0 is a window end already scanned.  When A - iB is 0 as
# well, every coefficient is and there are no roots.  Leading zeros -> the
# coefficients kept.
_REDUCED = {0: slice(0, 5), 1: slice(1, 4), 2: slice(2, 3)}

_WINDOW_ENDS = np.array([0.0, math.pi])

# i as a numpy scalar: i * x then rounds as the ufunc 1j * x of _fit_stack does.
_I = np.complex128(1j)

# The ones below the diagonal of a companion matrix, by degree.
_SUBDIAGONAL = {degree: np.eye(degree, k=-1, dtype=complex) for degree in (2, 4)}


def _fit_stack(d_meas, omega, a, b, c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(phi_hat, residual, failed) of :func:`least_squares_estimate` for N fits:
    d_meas, a, b and c are (N, d), omega is (N,).

    Each dot product is one BLAS dot per row, as ``x @ y`` of two vectors is,
    and the quartics of the rows that ``np.roots`` reduces alike, see
    ``_REDUCED``, share one stacked ``eigvals`` on the companion matrices it
    builds.  Each step reads only its own row.
    """
    alpha = a - d_meas
    bb, cc = np.vecdot(b, b), np.vecdot(c, c)
    amp = np.sqrt(bb + cc)  # |b cos + c sin| <= amp bounds the range of f
    bound = 2.0 * (2.0 * np.sqrt(np.vecdot(alpha, alpha)) * amp + amp * amp)
    failed = (omega <= FREQUENCY_CUTOFF) | (bound <= RANGE_CUTOFF)
    at_0 = alpha + b
    phi_hat, residual = np.empty(len(omega)), np.vecdot(at_0, at_0)
    A, B = 2.0 * np.vecdot(alpha, c), -2.0 * np.vecdot(alpha, b)
    C, D = 2.0 * np.vecdot(b, c), cc - bb
    iB, iD = 1j * B, 1j * D
    coeffs = np.array([C - iD, A - iB, np.zeros(len(A)), A + iB, C + iD]).T
    groups = [
        -1 if flat else 0 if lead else 1 if second else 2
        for flat, (lead, second) in zip(failed.tolist(), (coeffs[:, :2] != 0.0).tolist())
    ]
    for zeros in set(groups) - {-1}:
        rows = [i for i, group in enumerate(groups) if group == zeros]
        if len(rows) == len(groups):
            rows = slice(None)  # one group: views, not copies
        roots = _companion_roots(coeffs[rows, _REDUCED[zeros]])
        phi_hat[rows], residual[rows], failed[rows] = _scan_roots(
            roots, alpha[rows], b[rows], c[rows], omega[rows]
        )
    phi_hat[failed] = math.nan
    return phi_hat, residual, failed


def _companion_roots(poly: np.ndarray) -> np.ndarray:
    """Roots of each row of ``poly`` (highest degree first, leading coefficient
    nonzero unless the row is constant) as ``np.roots`` finds them: the
    eigenvalues of its companion matrix, every row in one ``eigvals``."""
    n, degree = poly.shape[0], poly.shape[1] - 1
    if degree == 0:
        return np.zeros((n, 0), complex)
    companion = np.empty((n, degree, degree), complex)
    companion[:] = _SUBDIAGONAL[degree]
    companion[:, 0, :] = -poly[:, 1:] / poly[:, :1]
    return np.linalg.eigvals(companion)


def _scan_roots(roots, alpha, b, c, omega):
    """(phi_hat, residual, flat) of the fits of :func:`_fit_stack` whose rows
    have the same number of roots: f is evaluated at the window's ends and at
    the angles of the cluster means inside it (an angle outside is replaced by
    the end 0, a candidate already).  A flat row's residual is the minimum of
    f; its phi_hat is left for the caller to discard."""
    near = np.abs(roots[:, :, None] - roots[:, None, :]) <= ROOT_CLUSTER
    means = (near @ roots[:, :, None])[:, :, 0] / near.sum(axis=2)
    angles = np.arctan2(means.imag, means.real) % (2.0 * math.pi)
    theta = np.empty((len(roots), 2 + roots.shape[1]))
    theta[:, :2] = _WINDOW_ENDS
    theta[:, 2:] = np.where(angles <= math.pi, angles, 0.0)
    residuals = _fourier(theta[:, :, None], alpha[:, None], b[:, None], c[:, None])
    values = (residuals * residuals).sum(axis=-1)
    low = values.min(axis=1)
    spread = values.max(axis=1) - low
    tied = values <= (low + TIE_BAND * spread)[:, None]
    best = np.where(tied, theta, np.inf).argmin(axis=1)
    rows = np.arange(len(roots))
    flat = spread < RANGE_CUTOFF
    return theta[rows, best] / omega, np.where(flat, low, values[rows, best]), flat


def _require_ensemble_size(nu: float) -> None:
    """Reject an ensemble size that is not a real >= 1 and a whole number."""
    if _real(nu, "nu", 1.0) % 1:
        raise ParameterOutOfRangeError(f"nu must be finite and >= 1 and whole, got {nu!r}")


def _require_finite(name: str, values: np.ndarray) -> None:
    """Reject measured data with an entry that is not finite."""
    if not np.isfinite(values).all():
        raise ParameterOutOfRangeError(f"{name} must be finite, got {values}")


def estimator_statistics(
    d_meas: np.ndarray, l_values: np.ndarray, f_exp: float, nu: float
) -> float:
    """Variance of the optimal estimator over an ensemble of ``nu`` probes.

    Var = [sum_j l_j^2 d_j - (sum_j l_j d_j)^2] / (nu f_exp^2); with exact
    populations at the reference phase the linear term vanishes and the
    variance reduces to 1 / (nu f_exp).  ``nu`` must be a whole number >= 1,
    ``f_exp`` a finite real, and ``d_meas`` and ``l_values`` finite, 1-D and of
    one length (``BasisMismatchError`` for the shapes).
    """
    _require_ensemble_size(nu)
    f_exp = _real(f_exp, "f_exp")
    if f_exp <= FISHER_CUTOFF:
        raise ZeroInformationError(
            f"reconstructed Fisher information {f_exp:.3e} is below {FISHER_CUTOFF:g}"
        )
    d, l = np.asarray(d_meas, dtype=float), np.asarray(l_values, dtype=float)
    if d.ndim != 1 or d.shape != l.shape:
        raise BasisMismatchError(f"need 1-D d_meas, l_values of one length: {d.shape}, {l.shape}")
    _require_finite("d_meas", d)
    _require_finite("l_values", l)
    return float(_variance(d, l, f_exp, nu))


def _variance(d, l, f_exp, nu):
    """The variance of :func:`estimator_statistics`, row by row, unchecked."""
    second = (l * l * d).sum(axis=-1)
    first = (l * d).sum(axis=-1)
    return (second - first * first) / (float(nu) * f_exp * f_exp)


def adaptive_localize(
    rho: DensityMatrix,
    ham: LocalHamiltonian,
    phi_true: float,
    max_iters: int = 10,
) -> tuple[list[float], bool]:
    """Iterative localization of the phase, refining the measurement basis.

    Starts from a trial phase of zero; each round measures (exactly) in the
    SLD eigenbasis at the current trial phase and replaces the trial with the
    least-squares estimate.  ``max_iters`` caps the number of trials, the start
    at zero included: a count >= 1 by the scalar rule (README, "Tolerances").
    Returns the trial sequence and whether some trial came within
    ``LOCALIZED_WITHIN`` of the true phase.  Raises :class:`PhaseOutOfWindowError`
    when ``phi_true`` lies outside [0, pi/omega).
    """
    max_iters, phi_true = _count(max_iters, "max_iters", 1), _real(phi_true, "phi_true")
    if qfi(rho, ham) <= FISHER_CUTOFF:
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
    probe's state and interferometric power come from :func:`probes.build_probes`.
    Raises :class:`PhaseOutOfWindowError` when ``phi_true`` lies outside the
    window [0, pi/omega) of the setting's generator, [0, pi/2) for settings
    1-3, and :class:`ParameterOutOfRangeError` when ``nu`` is not a whole
    number >= 1.  This is :func:`run_batch` of one run.
    """
    return run_batch([(probe, k, noise)], phi_true, nu)[0]


def run_batch(runs, phi_true: float, nu: float = 10**15) -> list[EstimationRun]:
    """The protocol instances ``runs``, each a (probe, k, noise) triple, at one
    true phase, computed as one stack.

    ``nu`` and ``phi_true`` are checked first, then every run, in order and as
    :func:`run_experiment` checks it: the probe's parameters
    (:attr:`ProbeFamily.matrix`), the setting and the window.  A family's
    parameters are checked once, at its first run, and a setting's window once
    per distinct setting; a bad setting raises ``BadSettingError`` from its own
    run.  So the first bad run raises before anything is computed, and
    ``runs`` may be a generator that makes its families as it goes.
    Then the distinct families, equal ones counted once, are built by one
    :func:`probes.build_probes` (one ``eigh`` for their states, one ``eigvalsh``
    for their powers); every run reads its probe's state of that stack, and its
    generator's row of the stacked settings.  The SLD eigenproblems of all runs
    are one ``eigh`` (one more per tie-break cluster size, see
    :func:`correlations._sld_stack`), the population models one pass, and the
    fits one stacked ``eigvals``.  Each noisy run draws its noise from its
    own ``default_rng(noise.seed)``, the seed it records
    (:func:`_standard_normal_rows`).  Every step reads only its own run, so a
    run's record is bit-identical whatever else the batch holds.
    """
    _require_ensemble_size(nu)
    phi_true, exact = _real(phi_true, "phi_true"), NoiseSpec()
    checked, families, settings, rows, by_setting = [], {}, {}, [], []
    for probe, k, noise in runs:
        row = families.get(probe)
        if row is None:
            probe.matrix  # checks the family's parameters, or raises
            row = families[probe] = len(families)
        k = _setting_index(k)
        setting = settings.get(k)
        if setting is None:
            ham = setting_hamiltonian(k)
            _check_in_window(ham, phi_true)
            setting = settings[k] = len(settings), ham
        checked.append((probe, k, noise or exact))
        rows.append(row)
        by_setting.append(setting[0])
    if not checked:
        return []
    probes, powers = build_probes(list(families))
    states = probes[rows]
    hams = [ham for _, ham in settings.values()]
    l_values, basis = _sld_stack(
        states,
        np.stack([ham.matrix for ham in hams])[by_setting],
        np.stack([ham.phase_unitary(phi_true) for ham in hams])[by_setting],
    )
    a, b, c = _population_stack(
        states,
        np.stack([ham.eigenvectors for ham in hams])[by_setting],
        basis,
    )
    omega = np.array([_frequency(ham) for ham in hams])[by_setting]
    populations = _fourier((omega * phi_true)[:, None], a, b, c)
    noisy = [i for i, (_, _, noise) in enumerate(checked) if noise.sigma != 0.0]
    if noisy:
        draws = _standard_normal_rows([checked[i][2].seed for i in noisy], a.shape[1])
        sigma = np.array([checked[i][2].sigma for i in noisy])[:, None]
        populations[noisy] = _perturb(populations[noisy], sigma, draws)
    f_exp = (l_values**2 * populations).sum(axis=-1)
    phi_hat, _, failed = _fit_stack(populations, omega, a, b, c)
    failed |= f_exp <= FISHER_CUTOFF
    var = np.full(len(checked), math.nan)
    var[~failed] = _variance(populations[~failed], l_values[~failed], f_exp[~failed], nu)
    return [
        _frozen(
            EstimationRun,
            probe_label=probe.label,
            p=probe.p,
            setting_k=k,
            phi0=phi_true,
            nu=int(nu),
            d_meas=tuple(d),
            l_values=tuple(l),
            phi_hat_mean=None if fail else mean,
            phi_hat_var=None if fail else v,
            f_exp=f,
            failed=fail,
            seed=noise.seed,
            ip=powers[row],
        )
        for (probe, k, noise), row, d, l, mean, v, f, fail in zip(
            checked,
            rows,
            populations.tolist(),
            l_values.tolist(),
            phi_hat.tolist(),
            var.tolist(),
            f_exp.tolist(),
            failed.tolist(),
        )
    ]


def run_sweep(
    labels,
    settings,
    p_values,
    phi_true: float,
    nu: float = 10**15,
    sigma: float = 0.0,
    seed: int | None = None,
) -> list[EstimationRun]:
    """Protocol runs over every (probe label, setting, p) combination, as one
    :func:`run_batch`.

    Rows are ordered by (label, setting, p); per-run noise seeds are derived
    from the root seed in that fixed order, so the output never depends on
    evaluation order.  One :class:`ProbeFamily` per (label, p) serves all its
    settings, and each distinct probe family is built once and shared by all
    its settings and, for families without parameters (``sep``, ``bell``),
    all its values of p.  ``sigma``, ``seed`` (as :class:`NoiseSpec` checks them),
    ``nu``, the settings and each p pass the scalar rule (README, "Tolerances")
    before any run, so an empty sweep rejects them too; the runs are then checked
    in order (a label naming no family at its first run), and the first bad one
    raises before anything is computed.  A noisy run's seed is drawn from
    ``default_rng(seed)``, and its :class:`NoiseSpec` is built from the checked
    sigma without checking it again; an exact sweep draws no seeds.
    """
    spec = NoiseSpec(sigma, seed)
    _require_ensemble_size(nu)
    labels, settings = sorted(labels, key=str), sorted(map(_setting_index, settings))
    ps = sorted(_real(p, "p") for p in p_values)
    combos = [(label, k, j, p) for label in labels for k in settings for j, p in enumerate(ps)]
    if spec.sigma == 0:
        noises = [spec] * len(combos)
    else:
        run_seeds = np.random.default_rng(spec.seed).integers(0, 2**63 - 1, size=len(combos))
        noises = [_frozen(NoiseSpec, sigma=spec.sigma, seed=s) for s in run_seeds.tolist()]

    def runs():
        families = {}  # (label, index of p) -> the one family its settings share
        for (label, k, j, p), noise in zip(combos, noises):
            if (label, j) not in families:
                families[label, j] = ProbeFamily(label, (p,) if label in SWEPT_LABELS else ())
            yield families[label, j], k, noise

    return run_batch(runs(), phi_true, nu)


def round12(x) -> float | None:
    """Round to 12 significant digits for stable, readable output files; None for
    None, NaN and +-inf, which strict JSON cannot hold."""
    if x is None or not math.isfinite(x):
        return None
    return float(f"{float(x):.12g}")


def fmt12(x) -> str:
    """12 significant digits; a missing value (None) prints as nan."""
    return "nan" if x is None else f"{float(x):.12g}"


# The JSON cell of a non-finite 12-digit text: round12 maps NaN and +-inf to None.
_JSON_CELL = {"nan": "null", "inf": "null", "-inf": "null"}


def _cells12(values, fmt: str) -> list[str]:
    """The cells of ``values`` (floats or None), each formatted once: in CSV
    the text t of :func:`fmt12`, in JSON what ``json.dumps`` writes for
    :func:`round12`'s float, ``null`` for None, NaN and +-inf.

    That float is float(t), and its ``repr`` has t's digits: two decimals of
    at most 12 digits that round to one normal double are equal.  So the JSON
    cell is t itself when both put the point or exponent alike (a fraction
    written out, or an exponent from e-05 to e-99), t + ".0" for a whole
    number, and repr(float(t)) only for the rest (exponents e+12 and up or
    e-100 and down, which keeps subnormals exact).
    """
    text = ["nan" if x is None else f"{x:.12g}" for x in values]
    if fmt == "csv":
        return text
    return [
        t if ("e" not in t and "." in t) or t[-4:-2] == "e-"
        else t + ".0" if t.lstrip("-").isdigit()
        else _JSON_CELL.get(t) or repr(float(t))
        for t in text
    ]


def _json_list(items: list[str], pad: str) -> str:
    """``json.dumps(indent=1)``'s layout of a list whose elements have the texts
    ``items``, for a list opened on a line indented by ``pad``."""
    if not items:
        return "[]"
    inner = "\n" + pad + " "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _json_template(keys, pad: str) -> str:
    """``json.dumps(indent=1)``'s layout of an object with ``keys``, opened on a
    line indented by ``pad``, as a %-template of its values' texts."""
    if not keys:
        return "{}"
    inner = "\n" + pad + " "
    fields = [_json_string(key).replace("%", "%%") + ": %s" for key in keys]
    return "{" + inner + ("," + inner).join(fields) + "\n" + pad + "}"


def _run_order(run: EstimationRun):
    return (run.probe_label, run.setting_k, run.p)


def sweep_rows(runs: list[EstimationRun]) -> list[dict]:
    """Tabular view of a sweep, one dict per run with the documented columns,
    sorted by s, k, p."""
    return [
        {
            "s": run.probe_label,
            "k": run.setting_k,
            "p": run.p,
            "f_exp_over_4": run.f_exp / 4.0,
            "ip": run.ip,
            "var": run.phi_hat_var,
            "nu_var_product": None if run.phi_hat_var is None else run.nu * run.phi_hat_var,
            "phi_hat": run.phi_hat_mean,
            "failed": run.failed,
        }
        for run in sorted(runs, key=_run_order)
    ]


def _list_cells(values, fmt: str) -> list[list[str]]:
    """The cells of each list of floats in ``values``, all in one :func:`_cells12`."""
    cells = iter(_cells12([x for v in values for x in v], fmt))
    return [list(islice(cells, len(v))) for v in values]


# The cells of a column of values by kind: a str as it is (a JSON string in JSON),
# an int (None is null), a bool, a float or None by _cells12, a list of floats.
_CELLS = {
    "str": lambda values, fmt: values if fmt == "csv" else list(map(_json_string, values)),
    "int": lambda values, fmt: ["null" if v is None else str(v) for v in values],
    "bool": lambda values, fmt: ["true" if v else "false" for v in values],
    "float": lambda values, fmt: _cells12(values, fmt),
    "floats": _list_cells,
}


def _row_cells(rows: list[dict], columns, fmt: str) -> dict[str, list[str]]:
    """``{column: cells}`` of :func:`sweep_rows` output, each value formatted once
    by ``_CELLS``: ``s`` is a str, ``k`` an int, ``failed`` a bool, the rest floats."""
    kinds = {"s": "str", "k": "int", "failed": "bool"}
    return {c: _CELLS[kinds.get(c, "float")]([row[c] for row in rows], fmt) for c in columns}


def _table_text(cells: dict[str, list[str]], columns, fmt: str) -> str:
    """The file of the rows of ``cells`` restricted to ``columns``: in CSV a
    header line and each row's cells joined by ','; in JSON a list of row
    objects laid out from one row template."""
    rows = zip(*(cells[c] for c in columns))
    if fmt == "csv":
        return "\n".join([",".join(columns), *map(",".join, rows)]) + "\n"
    template = _json_template(columns, " ")
    return _json_list([template % row for row in rows], "") + "\n"


def sweep_csv_text(runs: list[EstimationRun]) -> str:
    """Render a sweep as CSV with the fixed column schema ``SWEEP_COLUMNS``.

    ``s`` and ``k`` are written as they are, ``failed`` as true / false and the
    other columns with 12 significant digits, a missing value (None) or NaN
    being ``nan``.  The decimal separator is always '.' and the field separator
    ','.  The JSON files of :func:`figure3_texts` carry the same cells, ``null``
    where CSV has ``nan``, ``inf`` or ``-inf``, as ``json.dumps`` of the rows
    rounded by :func:`round12` with ``indent=1`` lays them out.
    """
    return _table_text(_row_cells(sweep_rows(runs), SWEEP_COLUMNS, "csv"), SWEEP_COLUMNS, "csv")


def _record_texts(runs: list[EstimationRun], pad: str, cells: dict) -> list[str]:
    """``json.dumps(run.to_json_dict(), indent=1)`` of each run, opened on a line
    indented by ``pad``, from one template.  A field reads its sweep column's
    JSON cells from ``cells`` (the runs' :func:`sweep_rows`) when they are there;
    every other field is formatted in one ``_CELLS`` pass over the runs."""
    template = _json_template([field for field, _, _ in RECORD_FIELDS], pad)
    columns = []
    for field, kind, column in RECORD_FIELDS:
        values = cells.get(column) or _CELLS[kind]([getattr(r, field) for r in runs], "json")
        columns.append([_json_list(v, pad + " ") for v in values] if kind == "floats" else values)
    return [template % record for record in zip(*columns)]


def run_json_text(run: EstimationRun) -> str:
    """``json.dumps(run.to_json_dict(), indent=1)`` plus a newline: ``ipower estimate``'s JSON."""
    return _record_texts([run], "", {})[0] + "\n"


def sweep_json_text(runs: list[EstimationRun]) -> str:
    """Render a sweep as a JSON array of run records (sorted by s, k, p)."""
    return _json_list(_record_texts(sorted(runs, key=_run_order), " ", {}), "") + "\n"


def figure3_texts(runs: list[EstimationRun], fmt: str) -> dict[str, str]:
    """The four figure-3 files of a sweep as ``{name: text}``, in ``FIGURE3_COLUMNS`` order.

    The rows are formatted once into one cell table that every file reads,
    the JSON sweep records included.
    """
    ordered = sorted(runs, key=_run_order)
    cells = _row_cells(sweep_rows(ordered), SWEEP_COLUMNS, fmt)
    return {
        name: (
            _json_list(_record_texts(ordered, " ", cells), "") + "\n"
            if fmt == "json" and name == "sweep"
            else _table_text(cells, columns, fmt)
        )
        for name, columns in FIGURE3_COLUMNS.items()
    }
