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
from .linalg import _count, _real
from .states import DensityMatrix, LocalHamiltonian

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

#: Subsystem dimensions of every probe family.
TWO_QUBITS = (2, 2)

#: |Phi+> = (|00> + |11>)/sqrt(2)
BELL_PHI_PLUS = np.array([_INV_SQRT2, 0.0, 0.0, _INV_SQRT2], dtype=complex)


@dataclass(frozen=True)
class ProbeFamily:
    """A probe family label together with its parameters, reals (README, "Tolerances")
    kept as Python floats, compared and hashed as a value: equal labels and parameters
    are one family.  A ``belldiag`` triple is kept as given for its tetrahedron rule at
    :attr:`matrix`, built on first access; :func:`build_probes` turns families into states."""

    label: str
    params: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.label not in PROBE_LABELS:
            raise ParameterOutOfRangeError(
                f"unknown probe label {self.label!r}; choose from {PROBE_LABELS}"
            )
        keep = self.label == "belldiag"  # a triple's own rule is _tetrahedron's, at .matrix
        params = tuple(x if keep else _real(x, "params") for x in self.params)
        object.__setattr__(self, "params", params)

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
    p = _real(p, "p", 0.0, 1.0)
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
    p = _real(p, "p", 0.0, 1.0)
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
    f = _real(f, "f", 0.0, 1.0)
    return f * np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj()) + (1 - f) * np.eye(4) / 4.0


def werner_state(f: float) -> DensityMatrix:
    """Mixture f |Phi+><Phi+| + (1 - f) I/4, f in [0, 1]."""
    return DensityMatrix.from_matrix(_werner_matrix(f), TWO_QUBITS)


def _tetrahedron(c1: float, c2: float, c3: float) -> tuple[float, float, float]:
    """(c1, c2, c3) as Python floats, or ``InvalidCorrelationTripleError`` for a triple
    outside the Bell-diagonal state tetrahedron: an entry that is not a finite real,
    or a closed-form eigenvalue of the state (c1, c2, c3) below -``TOL_PSD``."""
    outside = f"correlation triple ({c1}, {c2}, {c3}) lies outside the state tetrahedron"
    error = InvalidCorrelationTripleError
    c1, c2, c3 = (_real(c, f"{outside}: c{i}", error=error) for i, c in enumerate((c1, c2, c3), 1))
    if min(1 + c1 - c2 + c3, 1 - c1 + c2 + c3, 1 + c1 + c2 - c3, 1 - c1 - c2 - c3) / 4 < -TOL_PSD:
        raise InvalidCorrelationTripleError(outside)
    return c1, c2, c3


def _bell_diagonal_matrix(c1: float, c2: float, c3: float) -> np.ndarray:
    c1, c2, c3 = _tetrahedron(c1, c2, c3)
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
    """``k`` as a Python int of ``SETTINGS``, a count by the scalar rule (README,
    "Tolerances"), or ``BadSettingError``."""
    if k not in SETTINGS:
        raise BadSettingError(f"setting must be 1, 2 or 3, got {k!r}")
    return _count(k, "setting", 1, error=BadSettingError)


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
    p, k = _real(p, "p", 0.0, 1.0), _setting_index(k)
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
    (37 points), giving p from 1 down to 0.  Every argument must be a finite
    real, and the grid may hold at most ``_MAX_GRID_POINTS`` points: a finer one
    is refused before any array is built.
    """
    names = ("start_deg", "stop_deg", "step_deg")
    start_deg, stop_deg, step_deg = map(_real, (start_deg, stop_deg, step_deg), names)
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
