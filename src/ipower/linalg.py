"""Dense complex linear algebra primitives for finite-dimensional quantum states.

Everything operates on plain ``numpy.ndarray`` objects with ``complex128``
entries; matrices are row-major and square.

Row ``a * d_B + b`` of a bipartite matrix belongs to |a>|b>, the layout of
:func:`tensor`; :func:`apply_local` applies an operator on one factor by reshaping.
Data entering the program passes :func:`hermitian_part` once; :func:`eigh_sorted`
trusts its input and returns LAPACK's eigenpairs, eigenvalues ascending, as they are.
The constants block below is the one table of the library's numerical cutoffs.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import DimensionMismatchError, NoConvergenceError, NonHermitianError

# Every numerical cutoff of the library, in one table; every value is absolute.
# Each entry says its kind and the quantity, with units, it is compared to.  The
# kinds: an input policy (how far an input may sit from a valid one, as the
# README states), a zero-information rule (when a quantity is the analytic zero
# of a blind setting), a rounding rule (when computed values are rounded images
# of one exact value) and a resolution rule (when an iteration or a check stops).

# Input policy: the largest entry of |m - m^dagger| of a Hermitian input (a state
# or a generator, in the units of its entries), |Tr rho - 1| of a state and
# ||n| - 1| of a unit Bloch vector.
TOL_INPUT = 1e-10

# Input policy: how far below 0 the least eigenvalue of a state (its matrix, or
# the closed-form spectrum of a Bell-diagonal triple) may fall; probability.
TOL_PSD = 1e-9

# Zero-information rule: a Fisher information at or below this, the QFI of a
# probe and generator or f_exp reconstructed from measured populations, is the
# analytic zero of a blind setting rather than numerical dust; units of 1/phi^2.
FISHER_CUTOFF = 1e-10

# Zero-information rule: the least-squares objective |d(theta) - d_meas|^2 of a
# fit (squared populations) is flat when the bound b and c set on its range is at
# or below this, or its range over the fit's candidate angles is below it.
RANGE_CUTOFF = 1e-10

# Zero-information rule: a generator frequency omega = h_2 - h_1 at or below this
# imprints no phase; units of the generator's spectrum.
FREQUENCY_CUTOFF = 1e-10

# Rounding rule: eigenvalue pairs whose sum q_i + q_l falls below this cutoff are
# dropped from the spectral sums (the analytic formulas skip vanishing
# denominators); probability.
RANK_CUTOFF = 1e-12

# Rounding rule: ascending eigenvalues (of a state or an SLD) whose neighbours
# differ by less than this are treated as one degenerate cluster.
DEGENERACY_GAP = 1e-8

# Rounding rule: below this value of 1 - ||C||_inf^2 (dimensionless) the
# Bell-diagonal closed formula is singular and the spectral route is used instead.
BELL_DIAGONAL_DENOMINATOR_CUTOFF = 1e-9

# Rounding rule: roots of the fit's quartic in z = exp(i theta) closer than this
# form one cluster.  np.roots is backward stable (exact roots of coefficients off
# by ~eps), so a root z0 of multiplicity m splits by
# (eps ||p||_1 / |p^(m)(z0)/m!|)^(1/m).  Here m <= 3: the z^2 coefficient is 0,
# so a triple root z0 forces the fourth to -z0, and on the unit circle that ratio
# is 3, a split of (3 eps)^(1/3) = 8.7e-6.  Roots closer than the split at a
# backward error of 1000 eps form one cluster.
ROOT_CLUSTER = (3000.0 * np.finfo(float).eps) ** (1.0 / 3.0)

# Rounding rule: a fit's candidate whose objective lies within this fraction of
# the range over the candidates above the minimum ties with it; the smallest
# tied phase is reported.
TIE_BAND = 1e-12


def landscape_rounding(n_columns: int) -> float:
    """Rounding rule, derived: a sphere landscape of the oracles, sum_k w_k (n . E_k)^2
    over ``n_columns`` = 2P pair columns E_k, reads within delta = this times its
    scale S = sum_k w_k ||E_k||_1^2 (correlations._pauli_landscape derives it).

    Resolution rule, derived from it: the compass search of the sphere oracles
    stops once both of its (theta, phi) steps fall below r = sqrt(delta / S), the
    square root of this, 1.0e-7 to 1.9e-7 radians for d_B = 1-4.  A step below r
    moves the landscape by at most S r^2 <= delta, so no stencil can tell a
    neighbour from its centre."""
    return (2 * n_columns + 44) * np.finfo(float).eps


# Resolution rule: the adaptive loop has converged once a trial phase is closer
# than this to the true phase; units of phi.
LOCALIZED_WITHIN = 1e-6

# Resolution rule: a flip-angle grid point at most this far beyond the stop angle
# still belongs to the grid; degrees.
FLIP_ANGLE_SLACK = 1e-12

# Resolution rule: ``ipower ip`` reports the hierarchy interferometric power >=
# local quantum uncertainty as held when it fails by at most this; both measures
# are dimensionless.
HIERARCHY_SLACK = 1e-10

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# sigma_x, sigma_y, sigma_z as one read-only stack, shared by every call.
_PAULI_STACK = np.array(PAULIS)
_PAULI_STACK.flags.writeable = False


def _square_complex(m, max_ndim: int = 2) -> np.ndarray:
    """Coerce input to a complex square matrix, or for ``max_ndim`` 3 also to a
    stack of them.  Entries are not checked."""
    arr = np.asarray(m, dtype=complex)
    if not 2 <= arr.ndim <= max_ndim or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _is_int(n, low: int = 1) -> bool:
    """Whether ``n`` is a Python or numpy integer of at least ``low``; a bool is not one."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= low


def _finite_rows(arr: np.ndarray):
    """Whether every entry of a matrix, or of each matrix of a stack, is finite."""
    return np.isfinite(arr).all(axis=(-2, -1))


_NOT_FINITE = "matrix entries must be finite"


def as_square_complex(m) -> np.ndarray:
    """Coerce input to a finite square complex matrix."""
    arr = _square_complex(m)
    if not _finite_rows(arr):
        raise ValueError(_NOT_FINITE)
    return arr


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix of a stack."""
    return m.conj().mT


def _split_hermitian(arr: np.ndarray):
    """((arr + arr^dagger) / 2, max |arr - arr^dagger|) of a finite square matrix, or of
    each matrix of a stack: the exactly Hermitian part, and the deviation (max norm)
    that :func:`hermitian_part` holds to ``TOL_INPUT``."""
    adj = dagger(arr)
    return (arr + adj) / 2.0, np.abs(arr - adj).max(axis=(-2, -1))


def _non_hermitian(what: str, deviation: float) -> NonHermitianError:
    """The error for a ``what`` whose deviation from Hermitian exceeds ``TOL_INPUT``."""
    return NonHermitianError(
        f"{what} is not Hermitian within {TOL_INPUT:g} (deviation {deviation:.3e})"
    )


def hermitian_part(m, what: str = "matrix") -> np.ndarray:
    """Check ``m`` is a finite square matrix, Hermitian within ``TOL_INPUT`` (max
    norm), and return (m + m^dagger) / 2, which is exactly Hermitian."""
    herm, deviation = _split_hermitian(as_square_complex(m))
    if deviation > TOL_INPUT:
        raise _non_hermitian(what, deviation)
    return herm


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two square matrices, validated.

    Entry ((i*db + k), (j*db + l)) of the result is ``a[i, j] * b[k, l]``.
    """
    return np.kron(as_square_complex(a), as_square_complex(b))


def apply_local(op: np.ndarray, m: np.ndarray, dims, side: str = "A") -> np.ndarray:
    """``(op x I) @ m`` for side ``'A'``, ``(I x op) @ m`` for side ``'B'``, by reshape.

    ``m`` has d_A d_B rows; ``op`` acts on the chosen factor.  Either may be a
    stack, and leading stack axes broadcast.  Only the shapes are checked.
    """
    d_a, d_b = dims
    size = {"A": d_a, "B": d_b}[side]
    if op.shape[-1] != size:
        raise DimensionMismatchError(
            f"operator dimension {op.shape[-1]} != subsystem {side} dimension {size}"
        )
    k = m.shape[-1]
    if side == "A":
        out = op @ m.reshape(m.shape[:-2] + (d_a, d_b * k))
        return out.reshape(out.shape[:-2] + (d_a * d_b, k))
    out = op[..., None, :, :] @ m.reshape(m.shape[:-2] + (d_a, d_b, k))
    return out.reshape(out.shape[:-3] + (d_a * d_b, k))


def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, validated by :func:`hermitian_part`.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues in ascending
    order and orthonormal eigenvectors as the columns of the second array, as
    LAPACK returns them.  Inside a degenerate eigenspace that basis is
    reproducible only for bit-identical inputs.  Raises
    :class:`NonHermitianError` beyond ``TOL_INPUT`` and
    :class:`NoConvergenceError` if LAPACK fails.
    """
    return eigh_sorted(hermitian_part(m))


def eigh_sorted(herm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`eig_hermitian` without the checks, for an exactly Hermitian ``herm``."""
    try:
        return np.linalg.eigh(herm)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc


def degenerate_clusters(vals: Sequence[float]):
    """Yield ``(start, stop)`` for every run of two or more ascending eigenvalues
    in which each neighbouring pair differs by less than ``DEGENERACY_GAP``."""
    start = 0
    while start < len(vals):
        stop = start + 1
        while stop < len(vals) and vals[stop] - vals[stop - 1] < DEGENERACY_GAP:
            stop += 1
        if stop - start > 1:
            yield start, stop
        start = stop

