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
    NotPositiveSemidefiniteError,
    ParameterOutOfRangeError,
)
from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, PAULIS, tensor
from .states import DensityMatrix, LocalHamiltonian

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

#: |Phi+> = (|00> + |11>)/sqrt(2)
BELL_PHI_PLUS = np.array([_INV_SQRT2, 0.0, 0.0, _INV_SQRT2], dtype=complex)


@dataclass(frozen=True)
class ProbeFamily:
    """A probe family label together with its parameters.

    Equality and hashing come from ``label`` and ``params`` alone.  The
    family keeps what is built from it: :attr:`state` and :attr:`power` are
    computed on first access and reused, so a caller that passes one family
    object to several runs builds its probe once.  A build that raises caches
    nothing and raises again on the next access.
    """

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
    def state(self) -> DensityMatrix:
        """The probe's density matrix, ``make_probe(self)``, built once."""
        return make_probe(self)

    @cached_property
    def power(self) -> float:
        """Interferometric power of :attr:`state`, computed once."""
        from .correlations import interferometric_power  # correlations imports probes

        return interferometric_power(self.state)


def discordant_probe(p: float) -> DensityMatrix:
    """Discordant two-qubit probe with purity parameter p in [0, 1].

    Mixes the Bell state |Phi+> coherences into a diagonal background; its
    interferometric power is p^2 and its purity (1 + p^2)^2 / 4.
    """
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
    return DensityMatrix.from_matrix(m / 4.0, (2, 2))


def classical_probe(p: float) -> DensityMatrix:
    """Classically correlated two-qubit probe with the same purity as ``discordant_probe``.

    Diagonal in the product basis |±>|±>; its interferometric power vanishes
    for every p.
    """
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
    return DensityMatrix.from_matrix(m / 4.0, (2, 2))


def werner_state(f: float) -> DensityMatrix:
    """Mixture f |Phi+><Phi+| + (1 - f) I/4, f in [0, 1]."""
    require_within("f", f)
    m = f * np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj()) + (1 - f) * np.eye(4) / 4.0
    return DensityMatrix.from_matrix(m, (2, 2))


def bell_diagonal_state(c1: float, c2: float, c3: float) -> DensityMatrix:
    """Two-qubit state with maximally mixed marginals and correlations (c1, c2, c3)."""
    m = np.eye(4, dtype=complex)
    for c, s in zip((c1, c2, c3), PAULIS):
        m += c * tensor(s, s)
    try:
        return DensityMatrix.from_matrix(m / 4.0, (2, 2))
    except NotPositiveSemidefiniteError as exc:
        raise NotPositiveSemidefiniteError(
            f"correlation triple ({c1}, {c2}, {c3}) lies outside the state tetrahedron"
        ) from exc


def separable_discordant_state() -> DensityMatrix:
    """(|00><00| + |+1><+1|)/2, a separable state with interferometric power 1/2."""
    zero_zero = np.zeros(4, dtype=complex)
    zero_zero[0] = 1.0
    plus_one = np.array([0.0, _INV_SQRT2, 0.0, _INV_SQRT2], dtype=complex)
    m = (
        np.outer(zero_zero, zero_zero.conj()) + np.outer(plus_one, plus_one.conj())
    ) / 2.0
    return DensityMatrix.from_matrix(m, (2, 2))


def bell_probe() -> DensityMatrix:
    """The pure Bell state |Phi+><Phi+|."""
    return DensityMatrix.from_matrix(
        np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj()), (2, 2)
    )


# The probe families: label -> (builder, number of parameters).
_FAMILIES = {
    "Q": (discordant_probe, 1),
    "C": (classical_probe, 1),
    "werner": (werner_state, 1),
    "belldiag": (bell_diagonal_state, 3),
    "sep": (separable_discordant_state, 0),
    "bell": (bell_probe, 0),
}

PROBE_LABELS = tuple(_FAMILIES)

#: The families with one parameter p, which the flip-angle grid sweeps.
SWEPT_LABELS = tuple(label for label, (_, count) in _FAMILIES.items() if count == 1)


def make_probe(family: ProbeFamily) -> DensityMatrix:
    """Construct the density matrix of a probe family instance."""
    build, count = _FAMILIES[family.label]
    if len(family.params) != count:
        raise ParameterOutOfRangeError(
            f"family {family.label!r} takes {count} parameter(s), got {len(family.params)}"
        )
    return build(*family.params)


# The setting indices and their benchmark generators, built once; the
# generators' arrays are frozen.
SETTINGS = (1, 2, 3)
_GENERATORS = tuple(
    LocalHamiltonian.from_matrix(m)
    for m in (SIGMA_Z, (SIGMA_X + SIGMA_Y) * _INV_SQRT2, SIGMA_X)
)


def setting_hamiltonian(k: int) -> LocalHamiltonian:
    """Benchmark generator for setting k: sigma_z, (sigma_x + sigma_y)/sqrt(2), sigma_x."""
    if k not in SETTINGS:
        raise BadSettingError(f"setting must be 1, 2 or 3, got {k!r}")
    return _GENERATORS[int(k) - 1]


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


def flip_angle_grid(
    start_deg: float = 0.0, stop_deg: float = 90.0, step_deg: float = 2.5
) -> np.ndarray:
    """Purity parameters p = cos(theta) for flip angles theta on a degree grid.

    The default sweep runs from 0 to 90 degrees in 2.5-degree steps
    (37 points), giving p from 1 down to 0.  Every argument must be finite.
    """
    for name, value in zip(("start_deg", "stop_deg", "step_deg"), (start_deg, stop_deg, step_deg)):
        if not np.isfinite(value):
            raise ParameterOutOfRangeError(f"{name} must be finite, got {value!r}")
    if step_deg <= 0:
        raise ParameterOutOfRangeError("step must be positive")
    if stop_deg < start_deg:
        raise ParameterOutOfRangeError("stop must not precede start")
    count = int(round((stop_deg - start_deg) / step_deg))
    degrees = start_deg + step_deg * np.arange(count + 1)
    degrees = degrees[degrees <= stop_deg + 1e-12]  # keeps start: never empty
    return np.cos(np.deg2rad(degrees))


def require_within(name: str, value: float, high: float = 1.0) -> None:
    """Reject ``value`` outside [0, high], nan included."""
    if not 0.0 <= value <= high:
        raise ParameterOutOfRangeError(f"{name} must lie in [0, {high:.6g}], got {value!r}")

