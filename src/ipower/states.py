"""Bipartite quantum states and local Hamiltonians.

A :class:`DensityMatrix`, one state or a stack of states of equal ``dims``, carries
its spectral decomposition, computed once at construction and reused by every
spectral formula downstream, and the pair data those formulas read, computed at
most once per state on first use.  All values are immutable; operations return new
objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadSubsystemError,
    DimensionMismatchError,
    NotPositiveSemidefiniteError,
    ParameterOutOfRangeError,
    ZeroPurityError,
)
from .linalg import (
    _NOT_FINITE,
    _PAULI_STACK,
    PAULIS,
    TOL_INPUT,
    TOL_PSD,
    _finite_rows,
    _is_int,
    _non_hermitian,
    _split_hermitian,
    _square_complex,
    apply_local,
    dagger,
    eigh_sorted,
    hermitian_part,
)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _spectra(matrix, dims):
    """(Hermitian part, eigenvalues, eigenvectors) of a (d, d) density matrix, or of
    every matrix of an (N, d, d) stack, d split into d_A x d_B by ``dims``.

    Each matrix is checked in this order: finite entries, Hermitian within ``TOL_INPUT``
    (max norm), ``dims``, unit trace within ``TOL_INPUT``; then the Hermitian parts are
    diagonalized in one ``eigh``, each must be PSD within ``TOL_PSD``, and its ascending
    eigenvalues are clamped at 0 and renormalized to unit sum.  A stack that fails a
    check is checked again one matrix at a time, so it raises what a loop over its
    matrices would raise first.  Each step reads only its own matrix, so every matrix
    of a stack gets the bits of its own call.
    """
    arr = _square_complex(matrix, 3)
    # A stack passes a check when all its matrices do; one matrix's checks are scalars.
    every = np.all if arr.ndim == 3 else bool
    finite = _finite_rows(arr)
    if every(finite):
        herm, deviation = _split_hermitian(arr)
        trace = herm.trace(0, -2, -1).real
        dims_error = _dims_error(dims, arr.shape[-1])
        passed = (deviation <= TOL_INPUT) & (abs(trace - 1.0) <= TOL_INPUT)
        if dims_error is None and every(passed):
            vals, vecs = eigh_sorted(herm)
            if every(vals[..., 0] >= -TOL_PSD):
                vals = np.maximum(vals, 0.0)
                return herm, vals / vals.sum(axis=-1, keepdims=True), vecs
    if arr.ndim == 3:
        for one in arr:
            _spectra(one, dims)  # the lowest-index bad matrix raises its own error
        raise dims_error  # only an empty stack gets here, and it fails on its dims
    if not finite:
        raise ValueError(_NOT_FINITE)
    if deviation > TOL_INPUT:
        raise _non_hermitian("density matrix", deviation)
    if dims_error is not None:
        raise dims_error
    if abs(trace - 1.0) > TOL_INPUT:
        raise ValueError(f"trace must be 1, got {trace!r}")
    raise NotPositiveSemidefiniteError(f"minimum eigenvalue {vals[0]:.3e} below -{TOL_PSD:g}")


def _dims_error(dims, d: int) -> DimensionMismatchError | None:
    """The error for ``dims`` unless they are two positive integers, not bools, with product d."""
    if len(dims) == 2 and all(_is_int(n) for n in dims) and dims[0] * dims[1] == d:
        return None
    return DimensionMismatchError(f"dims {dims} must be two positive integers with product {d}")


@dataclass(frozen=True)
class DensityMatrix:
    """Validated bipartite quantum state, or stack of N states, with cached eigenpairs.

    Attributes
    ----------
    matrix : ndarray
        The (d, d) complex density matrix, d = dims[0] * dims[1], or (N, d, d).
    dims : tuple
        Subsystem dimensions (d_A, d_B).
    eigenvalues : ndarray
        Ascending real eigenvalues, clamped to [0, 1] and renormalized to
        unit sum: (d,), or (N, d).
    eigenvectors : ndarray
        Orthonormal eigenvectors as columns, paired with ``eigenvalues``.

    Pair data: the spectral formulas of :mod:`ipower.correlations` read the
    eigenvalues of the pairs i < l, their QFI and skew weights and the Pauli pair
    matrix E from ``_pair_data``, each computed at most once per state, on first
    use; E and the weights are read-only.  A result is bitwise that of a fresh
    state, whichever formula filled the data first.  Every constructor starts
    without it, so a state made by ``rho[i]``, :func:`evolve`,
    ``remix_degenerate_eigenspaces`` or ``apply_channel_b`` computes its own.
    """

    matrix: np.ndarray
    dims: tuple[int, int]
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    _pair_data: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_matrix(cls, matrix, dims: tuple[int, int]) -> "DensityMatrix":
        """Validate a raw matrix (finite, square, Hermitian, unit trace, PSD) and its
        ``dims``, two positive Python or numpy integers (True, 2.7 or "2" is refused),
        and diagonalize it once; the state keeps its eigenpairs for every later formula.

        An (N, d, d) ``matrix`` makes a stack of N states in one ``eigh``, each bitwise
        its own call, and the lowest-index bad matrix raises its own error (:func:`_spectra`).
        """
        arr, vals, vecs = _spectra(matrix, dims)
        return cls(_freeze(arr), (int(dims[0]), int(dims[1])), _freeze(vals), _freeze(vecs))

    def __getitem__(self, index) -> "DensityMatrix":
        """State ``index`` of a stack, or the stack of the states that ``index`` (a
        slice, an index array or a boolean mask) selects; a state taken from a stack
        is bitwise its own ``from_matrix``."""
        if self.matrix.ndim != 3:
            raise ValueError("a single state has no stack axis to index")
        index = np.arange(len(self.matrix))[index]  # rejects an index into the matrix
        arrays = self.matrix, self.eigenvalues, self.eigenvectors
        matrix, vals, vecs = (_freeze(a[index]) for a in arrays)
        return DensityMatrix(matrix, self.dims, vals, vecs)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @property
    def d_a(self) -> int:
        return self.dims[0]

    @property
    def d_b(self) -> int:
        return self.dims[1]

    def purity(self) -> float | list[float]:
        """Tr[rho^2], or for a stack the list of them."""
        values = np.sum(self.eigenvalues**2, axis=-1)
        return values.tolist() if values.ndim else float(values)

    def to_json_dict(self) -> dict:
        """Serialize one state to the interchange schema {"dims", "re", "im"}."""
        _require_single(self)
        return {
            "dims": [self.d_a, self.d_b],
            "re": self.matrix.real.tolist(),
            "im": self.matrix.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "DensityMatrix":
        try:
            dims = tuple(payload["dims"])
            re = np.asarray(payload["re"], dtype=float)
            im = np.asarray(payload["im"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed state payload: {exc}") from exc
        if re.shape != im.shape:
            raise ValueError("re and im parts have different shapes")
        return cls.from_matrix(_square_complex(re + 1j * im), dims)  # one state, no stack


def _require_single(*states: DensityMatrix) -> None:
    """Reject a stack of states where one state is taken."""
    for rho in states:
        if rho.matrix.ndim != 2:
            raise ValueError(f"expected one state, got a stack of {len(rho.matrix)}")


def _pauli_sum(n: np.ndarray) -> np.ndarray:
    """0 + n_x sigma_x + n_y sigma_y + n_z sigma_z, added in that order, for a real 3-vector n."""
    return np.add.reduce(n[:, None, None] * _PAULI_STACK, axis=0, initial=0)


@dataclass(frozen=True)
class LocalHamiltonian:
    """Hermitian generator acting on subsystem A.

    ``spectrum`` is the ascending eigenvalue list (the spectral class of the
    generator); ``bloch_vector`` is set exactly when the matrix equals
    n_x sigma_x + n_y sigma_y + n_z sigma_z for a unit 3-vector n.
    """

    matrix: np.ndarray
    spectrum: np.ndarray
    eigenvectors: np.ndarray
    bloch_vector: np.ndarray | None = None

    @classmethod
    def from_matrix(cls, matrix) -> "LocalHamiltonian":
        arr = hermitian_part(matrix, "Hamiltonian")
        vals, vecs = eigh_sorted(arr)
        bloch = None
        if arr.shape[0] == 2:
            n = np.array([np.trace(s @ arr).real / 2.0 for s in PAULIS])
            recon = _pauli_sum(n)
            if (
                abs(np.linalg.norm(n) - 1.0) <= TOL_INPUT
                and np.max(np.abs(recon - arr)) <= TOL_INPUT
            ):
                bloch = _freeze(n)
        return cls(_freeze(arr), _freeze(vals), _freeze(vecs), bloch)

    @classmethod
    def from_bloch(cls, n) -> "LocalHamiltonian":
        """Qubit generator n . sigma for a unit Bloch vector n."""
        n = np.asarray(n, dtype=float)
        if n.shape != (3,):
            raise ValueError("Bloch vector must have three components")
        norm = np.linalg.norm(n)
        if not abs(norm - 1.0) <= TOL_INPUT:  # also rejects nan and inf
            raise ValueError(f"Bloch vector must be unit length, |n| = {norm!r}")
        matrix = _pauli_sum(n)  # exactly Hermitian
        vals, vecs = eigh_sorted(matrix)
        return cls(_freeze(matrix), _freeze(vals), _freeze(vecs), _freeze(n))

    @property
    def d_a(self) -> int:
        return self.matrix.shape[0]

    def phase_unitary(self, phi: float) -> np.ndarray:
        """exp(-i phi H) on subsystem A from the cached eigendecomposition, phi finite and real."""
        if np.iscomplexobj(phi) or not np.isfinite(phi):  # 0.3+0j is complex too
            raise ParameterOutOfRangeError(f"phase must be finite and real, got {phi!r}")
        return (self.eigenvectors * np.exp(-1j * phi * self.spectrum)) @ dagger(
            self.eigenvectors
        )


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Trace out one subsystem, keeping ``'A'`` or ``'B'``.

    The result is returned as a density matrix with a trivial second factor,
    dims (d, 1).
    """
    if keep not in ("A", "B"):
        raise BadSubsystemError(f"keep must be 'A' or 'B', got {keep!r}")
    _require_single(rho)
    d_a, d_b = rho.dims
    blocks = rho.matrix.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        reduced = np.trace(blocks, axis1=1, axis2=3)
    else:
        reduced = np.trace(blocks, axis1=0, axis2=2)
    return DensityMatrix.from_matrix(reduced, (reduced.shape[0], 1))


def evolve(rho: DensityMatrix, ham: LocalHamiltonian, phi: float) -> DensityMatrix:
    """Apply the local phase shift (e^{-i phi H} ⊗ I) rho (e^{-i phi H} ⊗ I)†.

    The output reuses the input's validated spectrum with eigenvectors rotated
    by :func:`apply_local`, so unitary invariance of the eigenvalues is exact
    and nothing is checked again.
    """
    _require_single(rho)
    vecs = apply_local(ham.phase_unitary(phi), rho.eigenvectors, rho.dims)
    matrix = (vecs * rho.eigenvalues) @ dagger(vecs)
    return DensityMatrix(_freeze(matrix), rho.dims, rho.eigenvalues, _freeze(vecs))


def hs_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Hilbert-Schmidt fidelity Tr[rho sigma] / sqrt(Tr[rho^2] Tr[sigma^2])."""
    _require_single(rho, sigma)
    if rho.dims != sigma.dims:
        raise DimensionMismatchError(f"dims differ: {rho.dims} vs {sigma.dims}")
    overlap = np.trace(rho.matrix @ sigma.matrix).real
    norms = np.trace(rho.matrix @ rho.matrix).real * np.trace(
        sigma.matrix @ sigma.matrix
    ).real
    if norms <= 0.0:
        raise ZeroPurityError("state with zero Hilbert-Schmidt norm")
    return float(overlap / np.sqrt(norms))


def save_state(rho: DensityMatrix, path) -> None:
    """Write one state to a JSON file (exact float round trip)."""
    payload = rho.to_json_dict()  # rejects a stack before the file is opened
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_state(path) -> DensityMatrix:
    """Read a state from a JSON file written by :func:`save_state`."""
    with open(path, "r", encoding="utf-8") as fh:
        return DensityMatrix.from_json_dict(json.load(fh))
