"""Dense complex linear algebra primitives for finite-dimensional quantum states.

Everything operates on plain ``numpy.ndarray`` objects with ``complex128``
entries; matrices are row-major and square.

Row ``a * d_B + b`` of a bipartite matrix belongs to |a>|b>, the layout of
:func:`tensor`; :func:`apply_local` applies an operator on one factor by reshaping.
Data entering the program passes :func:`hermitian_part` once; :func:`eigh_sorted`
trusts its input and returns LAPACK's eigenpairs, eigenvalues ascending, as they are.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import DimensionMismatchError, NoConvergenceError, NonHermitianError

# Tolerances used throughout the library.
TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_NORM = 1e-10
TOL_PSD = 1e-9

# Eigenvalue pairs whose sum falls below this cutoff are dropped from the
# spectral sums (the analytic formulas skip vanishing denominators).
RANK_CUTOFF = 1e-12

# Eigenvalues closer than this are treated as one degenerate cluster.
DEGENERACY_GAP = 1e-8

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


def _is_positive_int(n) -> bool:
    """Whether ``n`` is a positive Python or numpy integer; a bool is not one."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1


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
    that :func:`hermitian_part` holds to ``TOL_HERM``."""
    adj = dagger(arr)
    return (arr + adj) / 2.0, np.abs(arr - adj).max(axis=(-2, -1))


def _non_hermitian(what: str, deviation: float) -> NonHermitianError:
    """The error for a ``what`` whose deviation from Hermitian exceeds ``TOL_HERM``."""
    return NonHermitianError(
        f"{what} is not Hermitian within {TOL_HERM:g} (deviation {deviation:.3e})"
    )


def hermitian_part(m, what: str = "matrix") -> np.ndarray:
    """Check ``m`` is a finite square matrix, Hermitian within ``TOL_HERM`` (max
    norm), and return (m + m^dagger) / 2, which is exactly Hermitian."""
    herm, deviation = _split_hermitian(as_square_complex(m))
    if deviation > TOL_HERM:
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
    :class:`NonHermitianError` beyond ``TOL_HERM`` and
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

