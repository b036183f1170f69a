"""Probe state families and benchmark generator settings.

Two iso-purity two-qubit families drive the estimation benchmark: the
discordant family ``Q`` and the classically correlated family ``C``, both
parameterized by a purity parameter p in [0, 1] (p = cos(theta) for a flip
angle theta).  Werner, Bell-diagonal, the pure Bell state and a maximally
discordant separable state complete the set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BadSettingError,
    InvalidCorrelationTripleError,
    ParameterOutOfRangeError,
)
from .linalg import FLIP_ANGLE_SLACK, SIGMA_X, SIGMA_Y, SIGMA_Z, PAULIS, TOL_PSD, tensor
from .states import DensityMatrix, LocalHamiltonian

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

#: Subsystem dimensions of every probe family.
TWO_QUBITS = (2, 2)

#: |Phi+> = (|00> + |11>)/sqrt(2)
BELL_PHI_PLUS = np.array([_INV_SQRT2, 0.0, 0.0, _INV_SQRT2], dtype=complex)


@dataclass(frozen=True)
class ProbeFamily:
    """A probe family label together with its parameters, compared and hashed as
    a value: equal labels and parameters are one family.  :attr:`matrix` is built
    from them on first access; :func:`build_probes` turns families into states."""

    label: str
    params: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.label not in PROBE_LABELS:
            raise ParameterOutOfRangeError(
                f"unknown probe label {self.label!r}; choose from {PROBE_LABELS}"
            )
        object.__setattr__(self, "params", tuple(float(x) for x in self.params))

    @property
    def p(self) -> float | None:
        """First family parameter (purity parameter, Werner weight, ...), or
        None for a family without parameters, so that equal runs compare equal."""
        return self.params[0] if self.params else None

    @cached_property
    def matrix(self) -> np.ndarray:
        """The raw (4, 4) probe matrix, read-only, its parameters checked (their
        count, their range) but not yet validated as a state: :func:`build_probes`
        does that.  Built once; a build that raises raises again on the next access."""
        build, count = _FAMILIES[self.label]
        if len(self.params) != count:
            raise ParameterOutOfRangeError(
                f"family {self.label!r} takes {count} parameter(s), got {len(self.params)}"
            )
        matrix = build(*self.params)
        matrix.flags.writeable = False
        return matrix


def build_probes(families) -> tuple[DensityMatrix, list[float]]:
    """(states, powers) of the probes of ``families``, a non-empty sequence of
    :class:`ProbeFamily`: the stack of their states in its order, and their
    interferometric powers.

    The raw matrices (:attr:`ProbeFamily.matrix`, so each family's parameters are
    checked in order) make one stacked ``DensityMatrix.from_matrix`` (one ``eigh``),
    and the powers are one stacked ``interferometric_power`` (one ``eigvalsh``).
    """
    from .correlations import interferometric_power  # correlations imports probes

    states = DensityMatrix.from_matrix(np.stack([f.matrix for f in families]), TWO_QUBITS)
    return states, interferometric_power(states)


def _discordant_matrix(p: float) -> np.ndarray:
    require_within("p", p)
    m = np.array(
        [
            [1 + p * p, 0, 0, 2 * p],
            [0, 1 - p * p, 0, 0],
            [0, 0, 1 - p * p, 0],
            [2 * p, 0, 0, 1 + p * p],
        ],
        dtype=complex,
    )
    return m / 4.0


def discordant_probe(p: float) -> DensityMatrix:
    """Discordant two-qubit probe with purity parameter p in [0, 1].

    Mixes the Bell state |Phi+> coherences into a diagonal background; its
    interferometric power is p^2 and its purity (1 + p^2)^2 / 4.
    """
    return DensityMatrix.from_matrix(_discordant_matrix(p), TWO_QUBITS)


def _classical_matrix(p: float) -> np.ndarray:
    require_within("p", p)
    m = np.array(
        [
            [1, p * p, p, p],
            [p * p, 1, p, p],
            [p, p, 1, p * p],
            [p, p, p * p, 1],
        ],
        dtype=complex,
    )
    return m / 4.0


def classical_probe(p: float) -> DensityMatrix:
    """Classically correlated two-qubit probe with the same purity as ``discordant_probe``.

    Diagonal in the product basis |±>|±>; its interferometric power vanishes
    for every p.
    """
    return DensityMatrix.from_matrix(_classical_matrix(p), TWO_QUBITS)


def _werner_matrix(f: float) -> np.ndarray:
    require_within("f", f)
    return f * np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj()) + (1 - f) * np.eye(4) / 4.0


def werner_state(f: float) -> DensityMatrix:
    """Mixture f |Phi+><Phi+| + (1 - f) I/4, f in [0, 1]."""
    return DensityMatrix.from_matrix(_werner_matrix(f), TWO_QUBITS)


def _require_tetrahedron(c1: float, c2: float, c3: float) -> None:
    """Reject a triple outside the Bell-diagonal state tetrahedron with
    ``InvalidCorrelationTripleError``: one of the closed-form eigenvalues of the
    state (c1, c2, c3) falls below -``TOL_PSD``.  Those of a non-finite triple
    include a nan or -inf, so ``min() >= -TOL_PSD`` rejects it too."""
    eigenvalues = np.array(
        [
            1 + c1 - c2 + c3,
            1 - c1 + c2 + c3,
            1 + c1 + c2 - c3,
            1 - c1 - c2 - c3,
        ]
    ) / 4.0
    if not eigenvalues.min() >= -TOL_PSD:
        raise InvalidCorrelationTripleError(
            f"correlation triple ({c1}, {c2}, {c3}) lies outside the state tetrahedron"
        )


def _bell_diagonal_matrix(c1: float, c2: float, c3: float) -> np.ndarray:
    _require_tetrahedron(c1, c2, c3)
    m = np.eye(4, dtype=complex)
    for c, s in zip((c1, c2, c3), PAULIS):
        m += c * tensor(s, s)
    return m / 4.0


def bell_diagonal_state(c1: float, c2: float, c3: float) -> DensityMatrix:
    """Two-qubit state with maximally mixed marginals and correlations (c1, c2, c3),
    which must lie in the state tetrahedron."""
    return DensityMatrix.from_matrix(_bell_diagonal_matrix(c1, c2, c3), TWO_QUBITS)


def _separable_discordant_matrix() -> np.ndarray:
    zero_zero = np.zeros(4, dtype=complex)
    zero_zero[0] = 1.0
    plus_one = np.array([0.0, _INV_SQRT2, 0.0, _INV_SQRT2], dtype=complex)
    return (
        np.outer(zero_zero, zero_zero.conj()) + np.outer(plus_one, plus_one.conj())
    ) / 2.0


def separable_discordant_state() -> DensityMatrix:
    """(|00><00| + |+1><+1|)/2, a separable state with interferometric power 1/2."""
    return DensityMatrix.from_matrix(_separable_discordant_matrix(), TWO_QUBITS)


def _bell_matrix() -> np.ndarray:
    return np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj())


def bell_probe() -> DensityMatrix:
    """The pure Bell state |Phi+><Phi+|."""
    return DensityMatrix.from_matrix(_bell_matrix(), TWO_QUBITS)


# The probe families: label -> (function making the raw matrix, number of parameters).
_FAMILIES = {
    "Q": (_discordant_matrix, 1),
    "C": (_classical_matrix, 1),
    "werner": (_werner_matrix, 1),
    "belldiag": (_bell_diagonal_matrix, 3),
    "sep": (_separable_discordant_matrix, 0),
    "bell": (_bell_matrix, 0),
}

PROBE_LABELS = tuple(_FAMILIES)

#: The families with one parameter p, which the flip-angle grid sweeps.
SWEPT_LABELS = tuple(label for label, (_, count) in _FAMILIES.items() if count == 1)


def make_probe(family: ProbeFamily) -> DensityMatrix:
    """A fresh density matrix of a probe family instance, built from
    :attr:`ProbeFamily.matrix` by ``DensityMatrix.from_matrix``."""
    return DensityMatrix.from_matrix(family.matrix, TWO_QUBITS)


# The setting indices and their benchmark generators, built once; the
# generators' arrays are frozen.
SETTINGS = (1, 2, 3)
_GENERATORS = tuple(
    LocalHamiltonian.from_matrix(m)
    for m in (SIGMA_Z, (SIGMA_X + SIGMA_Y) * _INV_SQRT2, SIGMA_X)
)


def _setting_index(k) -> int:
    """``k`` as an int of ``SETTINGS``, checked before the cast: 2, 2.0 and
    ``np.int64(2)`` are setting 2, while 2.9, "2", 2 + 0j and a bool raise
    ``BadSettingError``."""
    if isinstance(k, (bool, np.bool_, complex, np.complexfloating)) or k not in SETTINGS:
        raise BadSettingError(f"setting must be 1, 2 or 3, got {k!r}")
    return int(k)


def setting_hamiltonian(k: int) -> LocalHamiltonian:
    """Benchmark generator for setting k: sigma_z, (sigma_x + sigma_y)/sqrt(2), sigma_x."""
    return _GENERATORS[_setting_index(k) - 1]


def predicted_qfi(label: str, p: float, k: int) -> float:
    """Analytic QFI for the Q/C families under setting k.

    Q: 8 p^2/(1 + p^2), 4 p^2, 4 p^2 for k = 1, 2, 3;
    C: 8 p^2/(1 + p^2), 4 p^2/(1 + p^2), 0.
    """
    if label not in ("Q", "C"):
        raise ParameterOutOfRangeError(
            f"analytic curves exist for labels 'Q' and 'C', got {label!r}"
        )
    require_within("p", p)
    setting_hamiltonian(k)  # rejects a k outside SETTINGS
    p2 = p * p
    if k == 1:
        return 8.0 * p2 / (1.0 + p2)
    if label == "Q":
        return 4.0 * p2
    if k == 2:
        return 4.0 * p2 / (1.0 + p2)
    return 0.0


# Most points a flip-angle grid may hold.  A figure3 sweep of the default probes
# (Q and C at three settings) traces about 20.5 KiB a point, the slope between
# 3601 points (72.5 MiB) and 9001 points (180.8 MiB) under numpy 2.4, so a sweep
# of the cap traces about 1 GiB.
_MAX_GRID_POINTS = 50_000


def flip_angle_grid(
    start_deg: float = 0.0, stop_deg: float = 90.0, step_deg: float = 2.5
) -> np.ndarray:
    """Purity parameters p = cos(theta) for flip angles theta on a degree grid.

    The default sweep runs from 0 to 90 degrees in 2.5-degree steps
    (37 points), giving p from 1 down to 0.  Every argument must be finite, and
    the grid may hold at most ``_MAX_GRID_POINTS`` points: a finer one is refused
    before any array is built.
    """
    for name, value in zip(("start_deg", "stop_deg", "step_deg"), (start_deg, stop_deg, step_deg)):
        if not np.isfinite(value):
            raise ParameterOutOfRangeError(f"{name} must be finite, got {value!r}")
    if step_deg <= 0:
        raise ParameterOutOfRangeError("step must be positive")
    if stop_deg < start_deg:
        raise ParameterOutOfRangeError("stop must not precede start")
    span = (stop_deg - start_deg) / step_deg  # inf when the quotient overflows
    if not span < _MAX_GRID_POINTS:
        raise ParameterOutOfRangeError(
            f"step {step_deg!r} is too small: the grid would have {span + 1:.3g} points, "
            f"more than {_MAX_GRID_POINTS}"
        )
    count = int(round(span))
    degrees = start_deg + step_deg * np.arange(count + 1)
    degrees = degrees[degrees <= stop_deg + FLIP_ANGLE_SLACK]  # keeps start: never empty
    return np.cos(np.deg2rad(degrees))


def require_within(name: str, value: float, high: float = 1.0) -> None:
    """Reject ``value`` outside [0, high], nan included."""
    if not 0.0 <= value <= high:
        raise ParameterOutOfRangeError(f"{name} must lie in [0, {high:.6g}], got {value!r}")

