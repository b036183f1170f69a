"""Quantum Fisher information, SLD machinery and discord-type correlation measures.

The central quantities for a bipartite state rho with spectral decomposition
{q_i, |psi_i>} and a local generator H on subsystem A:

* ``qfi``            F = 4 sum_{i<l} (q_i - q_l)^2 / (q_i + q_l) |<psi_i|H x I|psi_l>|^2
* ``sld``            L, the symmetric logarithmic derivative at a reference phase
* ``interferometric_power``   the worst-case F/4 over all qubit generators of
  spectrum (-1, +1), computed as the smallest eigenvalue of a 3x3 quadratic form
* ``local_quantum_uncertainty``  the worst-case skew information over the same class

QFI and skew information are one spectral sum sum_{i<l} w_il |<psi_i|O x I|psi_l>|^2
with the QFI pair weight (q_i - q_l)^2 / (q_i + q_l), zero on pairs whose sum falls
below ``RANK_CUTOFF``, or the skew pair weight (sqrt(q_i) - sqrt(q_l))^2.  Over the real
pair matrix E of :func:`_pair_matrix` it is ``E[0]**2 @ w``, both 3x3 forms are
``(E * w) @ E.T`` and both Pauli landscapes ``(ns @ E)**2 @ w``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCorrelationTripleError, SubsystemANotQubitError
from .linalg import (
    PAULIS,
    RANK_CUTOFF,
    TOL_PSD,
    apply_local,
    dagger,
    degenerate_clusters,
    eigh_sorted,
)
from .probes import bell_diagonal_state
from .states import DensityMatrix, LocalHamiltonian

# Below this value of 1 - ||C||_inf^2 the Bell-diagonal closed formula is
# singular and the spectral route is used instead.
BELL_DIAGONAL_DENOMINATOR_CUTOFF = 1e-9

# (theta, phi) grid whose half phi < pi skew_grid_search scores before its
# compass search.
SEARCH_GRID = (128, 256)

# Rows of a grid's direction stack scored by one landscape call.
_GRID_BLOCK = 4096

# (theta, phi) offsets of the compass-search stencil; row 4 is the centre.
_STENCIL = np.array([(a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)])

# sigma_x, sigma_y, sigma_z as one read-only stack, shared by every call.
_PAULI_STACK = np.array(PAULIS)
_PAULI_STACK.flags.writeable = False


def _pair_ratio(s: np.ndarray, numerator: np.ndarray) -> np.ndarray:
    """numerator / s for pair sums s = q_i + q_l, zero where s falls below ``RANK_CUTOFF``."""
    return np.divide(numerator, s, out=np.zeros_like(s), where=s > RANK_CUTOFF)


def _qfi_weights(qi: np.ndarray, ql: np.ndarray) -> np.ndarray:
    """(q_i - q_l)^2 / (q_i + q_l) with vanishing-sum pairs dropped."""
    return _pair_ratio(qi + ql, (qi - ql) ** 2)


def _skew_weights(qi: np.ndarray, ql: np.ndarray) -> np.ndarray:
    """(sqrt(q_i) - sqrt(q_l))^2."""
    return (np.sqrt(qi) - np.sqrt(ql)) ** 2


def _elements(v: np.ndarray, dims, ops) -> np.ndarray:
    """<psi_i|O x I|psi_l> = ((O x I)|psi_i>)† |psi_l> for eigenvector columns v and
    Hermitian A-side O; either may be a stack, and leading stack axes broadcast."""
    return dagger(apply_local(np.asarray(ops), v, dims)) @ v


@functools.lru_cache(maxsize=8)
def _upper_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, l) of the pairs i < l of d indices, row-major; read-only, as every caller
    of a dimension shares them."""
    pairs = np.triu_indices(d, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _pair_matrix(rho: DensityMatrix, ops, weights) -> tuple[np.ndarray, np.ndarray]:
    """(E, w): row k of the real (k, 2P) E holds Re, then Im, of <psi_i|O_k x I|psi_l>
    over the P pairs i < l, and w their pair weights, twice.  No other pair carries
    information: w is symmetric with a zero diagonal, and O_k is Hermitian."""
    i, l = _upper_pairs(rho.dim)
    el = _elements(rho.eigenvectors, rho.dims, ops)[:, i, l]
    q = rho.eigenvalues
    w = weights(q[i], q[l])
    return np.concatenate((el.real, el.imag), axis=1), np.concatenate((w, w))


def _require_qubit(rho: DensityMatrix) -> None:
    if rho.d_a != 2:
        raise SubsystemANotQubitError(f"subsystem A has dimension {rho.d_a}, need a qubit")


def _quadratic_form(rho: DensityMatrix, weights) -> np.ndarray:
    """Real symmetric 3x3 form K with n^T K n = sum_{i<l} w_il |<psi_i|n . sigma x I|psi_l>|^2.

    Entry (m, n) is sum_{i<l} w_il Re(<psi_i|sigma_m x I|psi_l><psi_l|sigma_n x I|psi_i>).
    """
    _require_qubit(rho)
    e, w = _pair_matrix(rho, _PAULI_STACK, weights)
    form = (e * w) @ e.T
    return (form + form.T) / 2.0


def qfi(rho: DensityMatrix, ham: LocalHamiltonian) -> float:
    """Quantum Fisher information of rho for the phase generated by H x I.

    For pure states this equals four times the variance of the generator.
    The value is invariant under a global phase of the eigenvectors and under
    adding multiples of the identity to H.
    """
    e, w = _pair_matrix(rho, [ham.matrix], _qfi_weights)
    return float(4.0 * (e[0] ** 2 @ w))


@dataclass(frozen=True)
class SldDecomposition:
    """Eigenvalues and eigenbasis of the symmetric logarithmic derivative.

    The SLD solves d rho^phi / d phi = (rho^phi L + L rho^phi) / 2 at the
    reference phase.  It is covariant, L(phi0) = (U x I) L(0) (U x I)†,
    U = exp(-i phi0 H): the eigenvalues do not depend on phi0, and the whole
    basis is (U x I) W(0), W(0) fixed by the tie-break T of :func:`sld`.  The
    state, generator and phase it was built from stay with the caller.
    """

    eigenvalues: np.ndarray
    eigenbasis: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenbasis.shape[0]

    def operator(self) -> np.ndarray:
        """Reassemble the SLD matrix from its eigendecomposition, to within the
        eigenvalue spread of each degenerate cluster (below ``DEGENERACY_GAP``)."""
        return (self.eigenbasis * self.eigenvalues) @ dagger(self.eigenbasis)


def sld(rho: DensityMatrix, ham: LocalHamiltonian, phi0: float) -> SldDecomposition:
    """Symmetric logarithmic derivative of the encoded state at phase ``phi0``.

    L(0) is built in rho's own eigenbasis from the commutator -i[H x I, rho];
    matrix elements between eigenvector pairs whose eigenvalue sum falls below
    the rank cutoff are set to zero (the defining equation leaves them free).
    Inside each cluster of :func:`degenerate_clusters` of L(0), with columns C,
    the basis W(0) is C W for W the eigenvectors of C^dagger T C,
    T = diag(1, 2, 4, ...): it depends only on the eigenspace, up to phases
    that populations do not see.  The basis returned is (U x I) W(0).

    This is :func:`_sld_stack` without a stack axis; ``estimation.run_batch``
    calls it with one, and so solves the L(0) of a whole sweep in one ``eigh``.
    """
    return SldDecomposition(
        *_sld_stack(
            rho.eigenvalues, rho.eigenvectors, rho.dims, ham.matrix, ham.phase_unitary(phi0)
        )
    )


def _sld_stack(q, v, dims, h, u) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, basis (U x I) W(0)) of the SLD of :func:`sld`, for rho's eigenpairs
    (q, v), generator matrices h and phase unitaries u = exp(-i phi0 h).

    Each may carry one leading stack axis of N runs, which broadcasts: q (N, d),
    v (N, d, d), h and u (N, d_A, d_A).  Every L(0) of the stack is one ``eigh``,
    and the tie-break eigenproblems of every cluster of one size are one more.
    Each step reads only its own run, so a run's bits do not depend on the rest
    of the stack.
    """
    qi, ql = q[..., :, None], q[..., None, :]
    coeff = _pair_ratio(qi + ql, 2.0 * (ql - qi))
    l_el = -1j * coeff * _elements(v, dims, h)
    l_matrix = v @ l_el @ dagger(v)
    l_vals, l_vecs = eigh_sorted((l_matrix + dagger(l_matrix)) / 2.0)
    d = l_vals.shape[-1]
    vals, vecs = l_vals.reshape(-1, d), l_vecs.reshape(-1, d, d)
    clusters: dict[int, list[tuple[int, int]]] = {}  # size -> (run, first column)
    for run, row in enumerate(vals.tolist()):
        for start, stop in degenerate_clusters(row):
            clusters.setdefault(stop - start, []).append((run, start))
    tie = 2.0 ** np.arange(d)
    for size, found in clusters.items():
        c = np.array([vecs[run, :, start : start + size] for run, start in found])
        for (run, start), block in zip(found, c @ eigh_sorted((dagger(c) * tie) @ c)[1]):
            vecs[run, :, start : start + size] = block
    return l_vals, apply_local(u, vecs.reshape(l_vecs.shape), dims)


def qfi_quadratic_form(rho: DensityMatrix) -> np.ndarray:
    """Real symmetric 3x3 form Q with n^T Q n = qfi(rho, n . sigma) / 4.

    Entry (m, n) is half the double spectral sum of
    (q_i - q_l)^2/(q_i + q_l) <psi_i|sigma_m x I|psi_l><psi_l|sigma_n x I|psi_i>.
    Requires subsystem A to be a qubit; B may have any finite dimension.
    """
    return _quadratic_form(rho, _qfi_weights)


def interferometric_power(rho: DensityMatrix) -> float:
    """Worst-case qfi/4 over all qubit generators on A with spectrum (-1, +1).

    Equals the smallest eigenvalue of :func:`qfi_quadratic_form`; vanishes
    exactly on states that are classically correlated with respect to A.
    """
    smallest = float(np.linalg.eigvalsh(qfi_quadratic_form(rho))[0])
    return max(smallest, 0.0)


def _bloch(theta, phi) -> np.ndarray:
    """Unit vectors n(theta, phi), stacked along a trailing axis of length 3."""
    return np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
        axis=-1,
    )


def _pauli_landscape(rho: DensityMatrix, weights):
    """Closure ns -> the literal pair sum ``(ns @ E)**2 @ w`` at every row n of ns.

    E is taken as a row-major copy: :func:`_pair_matrix` returns it column-major,
    and the product with a row-major copy costs less and gives the same bits.  The
    product is squared in place."""
    _require_qubit(rho)
    e, w = _pair_matrix(rho, _PAULI_STACK, weights)
    e = np.ascontiguousarray(e)

    def landscape(ns):
        amplitudes = ns @ e
        return np.square(amplitudes, out=amplitudes) @ w

    return landscape


def _grid_angles(n_theta: int, n_phi: int, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Fresh (thetas, phis): theta in [0, pi] with both poles, and the first
    ``n_cols`` of the n_phi columns phi_j = j 2 pi / n_phi."""
    return np.linspace(0.0, np.pi, n_theta), np.arange(n_cols) * (2.0 * np.pi / n_phi)


@functools.lru_cache(maxsize=4)
def _grid_directions(n_theta: int, n_phi: int, n_cols: int) -> np.ndarray:
    """(n_theta * n_cols, 3) stack of the grid's unit vectors, theta-major, keyed
    by the columns it builds: built once per key on first use (four cover the
    grids of ``verify``: the half-grids of 256x512 and 128x256 that the oracles
    search, and the whole 181x360 and 64x64 landscapes) and read-only, as every
    caller shares it."""
    tt, pp = np.meshgrid(*_grid_angles(n_theta, n_phi, n_cols), indexing="ij")
    ns = _bloch(tt, pp).reshape(-1, 3)
    ns.flags.writeable = False
    return ns


def _grid_values(landscape, n_theta: int, n_phi: int, n_cols: int | None = None):
    """(thetas, phis, values) of ``landscape``, a map from an (N, 3) stack of unit
    vectors to N values, on theta in [0, pi] and the first ``n_cols`` (all by
    default) of the n_phi columns spaced over [0, 2 pi); values has shape
    (n_theta, n_cols).

    The directions of :func:`_grid_directions` are scored in blocks of
    ``_GRID_BLOCK`` rows, so no (N, 2P) intermediate is built.  Each value reads
    only its own row, so the blocks give the bits of one whole-stack call.
    ``thetas`` and ``phis`` are fresh arrays, never views of the cache.
    """
    n_cols = n_phi if n_cols is None else n_cols
    ns = _grid_directions(n_theta, n_phi, n_cols)
    values = np.empty(len(ns))
    for start in range(0, len(ns), _GRID_BLOCK):
        values[start : start + _GRID_BLOCK] = landscape(ns[start : start + _GRID_BLOCK])
    thetas, phis = _grid_angles(n_theta, n_phi, n_cols)
    return thetas, phis, values.reshape(n_theta, n_cols)


def _sphere_minimum(landscape, grid: tuple[int, int]) -> tuple[float, np.ndarray]:
    """Minimum of ``landscape`` over unit vectors: grid argmin, then compass search.

    ``landscape`` must be even in n, f(-n) = f(n), as the two it serves, the QFI
    and the skew information of n . sigma, are: H and -H are one generator.
    So only the half-grid phi < pi of ``grid`` = (n_theta, n_phi), its first
    ceil(n_phi / 2) columns, is scored by :func:`_grid_values`.  For even n_phi
    every other grid point is the antipode of a scored one; for odd n_phi the
    half-grid still comes within one spacing of every axis.  From the best
    scored point a 3x3 stencil in (theta, phi), one grid spacing wide and free
    to cross phi = pi, moves to its lowest point if that undercuts ``best``,
    the value last accepted, and otherwise halves its steps, until both fall
    below 1e-10.  As ``best`` only falls, the search stops; a fresh centre value
    can read a few ulps high in another batch row and keep it moving.  Returns
    (value, direction); the direction is defined up to sign.

    The stencil's nine points hold three thetas and three phis, so each step
    takes one sine and one cosine of those six angles and fills the nine
    directions, as outer products, into one reused (9, 3) buffer in ``_STENCIL``
    order: row k is bitwise ``_bloch(*(x + _STENCIL[k] * step))``, since
    x + (-1.0) s is x - s and x + 0.0 s is x (no angle is ever -0.0).  Every
    stencil call passes that same buffer, so ``landscape`` must not keep its
    argument.
    """
    n_theta, n_phi = grid
    thetas, phis, values = _grid_values(landscape, n_theta, n_phi, (n_phi + 1) // 2)
    i, j = np.unravel_index(np.argmin(values), values.shape)
    best, theta, phi = values[i, j], float(thetas[i]), float(phis[j])
    d_theta, d_phi = float(thetas[1] - thetas[0]), float(phis[1] - phis[0])
    angles, trig, stencil = np.empty(6), np.empty((2, 6)), np.empty((3, 3, 3))
    # Views into the buffers: sin and cos of the thetas, (cos, sin) of the phis.
    sin_t, cos_t, cos_sin_p = trig[0, :3, None, None], trig[1, :3, None], trig[::-1, 3:].T
    while max(d_theta, d_phi) >= 1e-10:
        ts, ps = (theta - d_theta, theta, theta + d_theta), (phi - d_phi, phi, phi + d_phi)
        angles[:] = ts + ps
        np.sin(angles, trig[0])
        np.cos(angles, trig[1])
        np.multiply(sin_t, cos_sin_p, stencil[..., :2])
        np.copyto(stencil[..., 2], cos_t)
        values = landscape(stencil.reshape(9, 3))
        k = int(values.argmin())
        if values[k] < best:
            best, theta, phi = values[k], ts[k // 3], ps[k % 3]
        else:
            d_theta, d_phi = d_theta / 2.0, d_phi / 2.0
    return float(best), _bloch(theta, phi)


def _check_grid(n_theta, n_phi) -> None:
    """Reject grid counts that are not positive whole numbers."""
    if not all(isinstance(n, (int, np.integer)) and n >= 1 for n in (n_theta, n_phi)):
        raise ValueError(f"grid counts ({n_theta!r}, {n_phi!r}) must be positive integers")


def qfi_sphere_grid(
    rho: DensityMatrix, n_theta: int, n_phi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QFI landscape over generator directions n(theta, phi) on the Bloch sphere.

    Evaluates the spectral QFI sum independently at every grid direction and
    returns (thetas, phis, F) with F of shape (n_theta, n_phi).  Both counts
    must be positive integers.
    """
    _check_grid(n_theta, n_phi)
    thetas, phis, values = _grid_values(_pauli_landscape(rho, _qfi_weights), n_theta, n_phi)
    return thetas, phis, 4.0 * values


def ip_grid_search(
    rho: DensityMatrix, n_theta: int = 180, n_phi: int = 360
) -> tuple[float, np.ndarray]:
    """Minimum of qfi/4 over the Bloch sphere, by direct search.

    Sums the QFI separately for every direction, never through
    :func:`qfi_quadratic_form`, so it cross-checks :func:`interferometric_power`:
    the half phi < pi of an (n_theta, n_phi) grid, at least 64 points per angle
    (the QFI of -n is that of n), then the compass search of the other sphere
    oracles.  Returns (value, direction), the direction defined up to sign.
    """
    _check_grid(n_theta, n_phi)
    if n_theta < 64 or n_phi < 64:
        raise ValueError("grid must have at least 64 points per angle")
    return _sphere_minimum(_pauli_landscape(rho, _qfi_weights), (n_theta, n_phi))


def ip_bell_diagonal(c1: float, c2: float, c3: float) -> float:
    """Interferometric power of the Bell-diagonal state with correlations (c1, c2, c3).

    Uses the closed expression
    (||C||_2^2 - ||C||_inf^2 + 2 det C) / (1 - ||C||_inf^2); when the
    denominator degenerates (near-pure states) the spectral route on the
    explicit 4x4 matrix is used instead.
    """
    c = np.array([c1, c2, c3], dtype=float)
    eigs = np.array(
        [
            1 + c1 - c2 + c3,
            1 - c1 + c2 + c3,
            1 + c1 + c2 - c3,
            1 - c1 - c2 - c3,
        ]
    ) / 4.0
    if not np.all(np.isfinite(c)) or eigs.min() < -TOL_PSD:
        raise InvalidCorrelationTripleError(
            f"triple {tuple(c)} gives eigenvalues {np.sort(eigs)}"
        )
    sup_sq = float(np.max(c**2))
    if 1.0 - sup_sq < BELL_DIAGONAL_DENOMINATOR_CUTOFF:
        return interferometric_power(bell_diagonal_state(c1, c2, c3))
    hs_sq = float(np.sum(c**2))
    det = float(np.prod(c))
    return (hs_sq - sup_sq + 2.0 * det) / (1.0 - sup_sq)


def skew_information(rho: DensityMatrix, ham: LocalHamiltonian) -> float:
    """Wigner-Yanase skew information -1/2 Tr[[sqrt(rho), H x I]^2].

    Evaluated in the eigenbasis of rho as
    sum_{i<l} (sqrt(q_i) - sqrt(q_l))^2 |<psi_i|H x I|psi_l>|^2.
    Bounded above by qfi/4, with equality on pure states.
    """
    e, w = _pair_matrix(rho, [ham.matrix], _skew_weights)
    return float(e[0] ** 2 @ w)


def local_quantum_uncertainty(rho: DensityMatrix) -> float:
    """Worst-case skew information over qubit generators on A with spectrum (-1, +1).

    Equals the smallest eigenvalue of the 3x3 skew form K = I - W with
    W_mn = Tr[sqrt(rho) sigma_m x I sqrt(rho) sigma_n x I], built directly in
    the eigenbasis of rho.  Lower-bounds the interferometric power for every
    state.
    """
    smallest = float(np.linalg.eigvalsh(_quadratic_form(rho, _skew_weights))[0])
    return max(smallest, 0.0)


def skew_grid_search(rho: DensityMatrix) -> tuple[float, np.ndarray]:
    """Dense-grid minimization of the skew information over the Bloch sphere.

    Cross-checks :func:`local_quantum_uncertainty` without going through the
    3x3 form: the skew information is summed separately for every direction,
    first on the half phi < pi of the ``SEARCH_GRID`` (it is even in n) and then
    along a compass search on the angles that polishes the grid argmin.
    Returns (value, direction), the direction defined up to sign.
    """
    return _sphere_minimum(_pauli_landscape(rho, _skew_weights), SEARCH_GRID)


def min_local_variance(rho: DensityMatrix) -> tuple[float, np.ndarray]:
    """Minimum of Var(n . sigma x I) over unit Bloch vectors n, in closed form.

    As (n . sigma)^2 = I, the literal Tr[rho H^2] - Tr[rho H]^2 is Tr rho - (n . f)^2,
    f_m = Tr[(sigma_m x I) rho], read from rho's matrix and never from its
    eigenpairs or the 3x3 forms.  Its minimum Tr rho - |f|^2 lies at n = f / |f|,
    or at e_z when f = 0 and every direction is one.  Returns (value, direction),
    the direction defined up to sign.  For pure states this equals the
    interferometric power.
    """
    _require_qubit(rho)
    f = np.trace(apply_local(_PAULI_STACK, rho.matrix, rho.dims), axis1=1, axis2=2).real
    norm = float(np.linalg.norm(f))
    direction = f / norm if norm > 0.0 else np.array([0.0, 0.0, 1.0])
    return float(np.trace(rho.matrix).real - f @ f), direction
