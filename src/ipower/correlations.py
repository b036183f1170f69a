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
pair matrix E of :func:`_pair_elements` it is ``E**2 @ w``, both 3x3 forms are
``(E * w) @ E.T`` and both Pauli landscapes ``(ns @ E)**2 @ w``.

Pair data: a state's pair eigenvalues, its weights w of each kind and its Pauli
pair matrix E are computed at most once per state, on first use, and kept with the
state (:func:`_pair_weights`, :func:`_pauli_pairs`).  So the IP, the LQU, the QFI
form, ``qfi``, ``skew_information`` and both Pauli landscapes of one state share
them, and each result is bitwise that of a fresh state, whichever formula came
first.  A state made by ``rho[i]``, ``evolve``, ``remix_degenerate_eigenspaces`` or
``apply_channel_b`` starts without pair data and computes its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterOutOfRangeError, SubsystemANotQubitError
from .linalg import (
    _PAULI_STACK,
    BELL_DIAGONAL_DENOMINATOR_CUTOFF,
    DEGENERACY_GAP,
    RANK_CUTOFF,
    _count,
    apply_local,
    dagger,
    degenerate_clusters,
    eigh_sorted,
    landscape_rounding,
)
from .probes import _tetrahedron, bell_diagonal_state
from .states import DensityMatrix, LocalHamiltonian, _require_single

# (theta, phi) grid whose half phi < pi skew_grid_search scores before its
# compass search.
SEARCH_GRID = (128, 256)

# Most grid rows passed to one landscape call: its (rows, 2P) product is at most
# 0.9 MiB (2P = 56 at d_B = 4), within a 2 MiB L2 cache.
_GRID_BLOCK = 2048

# Most screen values _candidate_rows holds at once: it screens the columns it
# keeps in bands of whole thetas, at most this many values per band unless one
# theta holds more (within ip_grid_search's limits one holds at most 2^20 / 64).
_SCREEN_CHUNK = 8 * _GRID_BLOCK

# Most points the half-grid phi < pi of ip_grid_search may hold.  It bounds time,
# not memory: a landscape that ties everywhere (the maximally mixed state) keeps
# every row in the screen of _candidate_rows, and a search at the cap then
# scores all 2^20 rows in 512 calls: 40-110 ms on one Xeon core, against under
# 0.5 ms for a random state.
_MAX_HALF_GRID = 2**20


def _pair_ratio(s: np.ndarray, numerator: np.ndarray) -> np.ndarray:
    """numerator / s for pair sums s = q_i + q_l, zero where s falls below ``RANK_CUTOFF``."""
    return np.divide(numerator, s, out=np.zeros(s.shape), where=s > RANK_CUTOFF)


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


def _pair_weights(rho: DensityMatrix, weights) -> np.ndarray:
    """The pair weights of the pairs i < l, twice: (2P,), or (N, 2P) for a stack of
    states.  No other pair carries information: w is symmetric with a zero diagonal.
    Pair data: computed once per state and kind of weight, read-only, from the pair
    eigenvalues (q_i, q_l), computed once per state."""
    data = rho._pair_data
    w = data.get(weights)
    if w is None:
        pairs = data.get("eigenvalues")
        if pairs is None:
            qt = rho.eigenvalues.T  # the pairs index its first axis, with or without a stack axis
            i, l = _upper_pairs(len(qt))
            pairs = data["eigenvalues"] = qt[i], qt[l]
        w = weights(*pairs)
        w = data[weights] = np.concatenate((w, w)).T
        w.setflags(write=False)
    return w


def _pair_elements(rho: DensityMatrix, ops) -> np.ndarray:
    """Real pair matrix E of the eigenvectors of rho: row k of the (k, 2P) E holds
    Re, then Im, of <psi_i|O_k x I|psi_l> over the P pairs i < l of the (k, d_A, d_A)
    Hermitian ops; for one (d_A, d_A) operator E is (2P,), and for a stack of states
    it carries the stack axis first.  E is column-major."""
    v = rho.eigenvectors
    i, l = _upper_pairs(rho.dim)
    # A stack of states takes an axis for the operators, which broadcast over it.
    el = _elements(v[:, None] if v.ndim > 2 else v, rho.dims, ops)[..., i, l]
    return np.concatenate((el.real, el.imag), axis=-1)


def _pauli_pairs(rho: DensityMatrix) -> np.ndarray:
    """:func:`_pair_elements` of sigma_x, sigma_y, sigma_z; pair data, computed once
    per state."""
    data = rho._pair_data
    e = data.get("pauli")
    if e is None:
        e = data["pauli"] = _pair_elements(rho, _PAULI_STACK)
        e.setflags(write=False)
    return e


def _require_qubit(dims) -> None:
    if dims[0] != 2:
        raise SubsystemANotQubitError(f"subsystem A has dimension {dims[0]}, need a qubit")


def _quadratic_form(rho: DensityMatrix, weights) -> np.ndarray:
    """Real symmetric 3x3 form K with n^T K n = sum_{i<l} w_il |<psi_i|n . sigma x I|psi_l>|^2
    of the state rho, or a (N, 3, 3) stack of them for a stack of states.

    Entry (m, n) is sum_{i<l} w_il Re(<psi_i|sigma_m x I|psi_l><psi_l|sigma_n x I|psi_i>).
    """
    _require_qubit(rho.dims)
    e, w = _pauli_pairs(rho), _pair_weights(rho, weights)
    form = (e * w[..., None, :]) @ e.mT
    return (form + form.mT) / 2.0


def _form_minimum(rho: DensityMatrix, weights):
    """The smallest eigenvalue of :func:`_quadratic_form`, clamped at 0 as ``max(x, 0.0)``
    clamps it: the worst case over qubit generators of spectrum (-1, +1).  For one
    state a float; for a stack of N states a list of N floats, every form solved in one
    ``eigvalsh``.  Each step reads only its own state, so a state of a stack gets the
    bits of its own call."""
    lowest = np.linalg.eigvalsh(_quadratic_form(rho, weights))[..., 0]
    if lowest.ndim:
        return [max(x, 0.0) for x in lowest.tolist()]
    return max(float(lowest), 0.0)


def qfi(rho: DensityMatrix, ham: LocalHamiltonian) -> float:
    """Quantum Fisher information of rho for the phase generated by H x I.

    For pure states this equals four times the variance of the generator.
    The value is invariant under a global phase of the eigenvectors and under
    adding multiples of the identity to H.
    """
    _require_single(rho)
    e = _pair_elements(rho, ham.matrix)
    return float(4.0 * (e**2 @ _pair_weights(rho, _qfi_weights)))


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
    ``estimation.run_batch`` solves the L(0) of a whole sweep in one :func:`_sld_stack`.
    """
    _require_single(rho)
    return SldDecomposition(*_sld_stack(rho, ham.matrix, ham.phase_unitary(phi0)))


def _sld_stack(rho: DensityMatrix, h, u) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, basis (U x I) W(0)) of the SLD of :func:`sld`, for the state rho,
    generator matrices h and phase unitaries u = exp(-i phi0 h).

    Each may carry one leading stack axis of N runs, which broadcasts: a stack of N
    states, h and u (N, d_A, d_A).  Every L(0) of the stack is one ``eigh``,
    and the tie-break eigenproblems of every cluster of one size are one more;
    one state solves each of its clusters in place.  Each step reads only its own
    run, so a run's bits do not depend on the rest of the stack.

    A stack finds its clusters in one pass over the neighbour gaps of every run:
    a cluster opens where a run of gaps below ``DEGENERACY_GAP`` starts and shuts
    where it ends, and as clusters do not nest the k-th opening pairs with the
    k-th shutting.  The columns of every cluster of one size are gathered into one
    contiguous (n, d, size) stack, as a copy of each slice would lay them out, and
    the tie-broken blocks are scattered back, both by fancy indexing.
    """
    q, v = rho.eigenvalues, rho.eigenvectors
    qi, ql = q[..., :, None], q[..., None, :]
    coeff = _pair_ratio(qi + ql, 2.0 * (ql - qi))
    l_el = -1j * coeff * _elements(v, rho.dims, h)
    l_matrix = v @ l_el @ dagger(v)
    l_vals, l_vecs = eigh_sorted((l_matrix + dagger(l_matrix)) / 2.0)
    d = l_vals.shape[-1]
    tie = 2.0 ** np.arange(d)
    if l_vecs.ndim == 2:
        for start, stop in degenerate_clusters(l_vals.tolist()):
            c = l_vecs[:, start:stop]
            l_vecs[:, start:stop] = c @ eigh_sorted((dagger(c) * tie) @ c)[1]
        return l_vals, apply_local(u, l_vecs, rho.dims)
    close = np.zeros((len(l_vals), d + 1), dtype=np.int8)
    close[:, 1:-1] = np.diff(l_vals, axis=-1) < DEGENERACY_GAP
    edges = np.diff(close, axis=-1)  # +1 at a cluster's first column, -1 after its last
    runs, starts = np.nonzero(edges == 1)
    sizes = np.nonzero(edges == -1)[1] + 1 - starts
    rows = np.arange(d)[:, None]
    for size in set(sizes.tolist()):
        found = sizes == size
        run, cols = runs[found, None, None], starts[found, None, None] + np.arange(size)
        c = l_vecs[run, rows, cols]
        l_vecs[run, rows, cols] = c @ eigh_sorted((dagger(c) * tie) @ c)[1]
    return l_vals, apply_local(u, l_vecs, rho.dims)


def qfi_quadratic_form(rho: DensityMatrix) -> np.ndarray:
    """Real symmetric 3x3 form Q with n^T Q n = qfi(rho, n . sigma) / 4, or for a
    stack of N states the (N, 3, 3) stack of their forms.

    Entry (m, n) is half the double spectral sum of
    (q_i - q_l)^2/(q_i + q_l) <psi_i|sigma_m x I|psi_l><psi_l|sigma_n x I|psi_i>.
    Requires subsystem A to be a qubit; B may have any finite dimension.
    """
    return _quadratic_form(rho, _qfi_weights)


def interferometric_power(rho: DensityMatrix) -> float:
    """Worst-case qfi/4 over all qubit generators on A with spectrum (-1, +1), or
    for a stack of states the list of them, every form solved in one ``eigvalsh``.

    Equals the smallest eigenvalue of :func:`qfi_quadratic_form`; vanishes
    exactly on states that are classically correlated with respect to A.
    """
    return _form_minimum(rho, _qfi_weights)


def _bloch(theta, phi) -> np.ndarray:
    """Unit vectors n(theta, phi), stacked along a trailing axis of length 3; theta
    has the shape of the stack.  Filled in place: a stack of two scalars, as the
    searches take it, costs a third of what ``np.stack`` costs."""
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    n = np.empty(np.shape(cos_t) + (3,))
    n[..., 0] = sin_t * np.cos(phi)
    n[..., 1] = sin_t * np.sin(phi)
    n[..., 2] = cos_t
    return n


def _pauli_landscape(rho: DensityMatrix, weights):
    """Closure ns -> the literal pair sum ``(ns @ E)**2 @ w`` at every row n of ns.

    E is taken as a row-major copy: :func:`_pair_elements` returns it column-major,
    and the product with a row-major copy costs less and gives the same bits.  The
    product is squared in place.

    Its ``screen`` (K, delta, r) tells :func:`_candidate_rows` which grid rows can
    hold the grid's lowest literal value, and :func:`_sphere_minimum` where its
    compass search may start and when it stops; it never supplies a value.
    K = (E w) E^T is the same pair sum as a 3x3 form, n^T K n, built here from E
    and w and never through :func:`_quadratic_form`, so the oracles stay
    independent of the closed forms.  delta bounds, at every grid row, |screen
    value - literal sum| plus the amount by which the screen's column bound can
    exceed a screen value of its column.  Error model, first order in u = eps / 2,
    with S = sum_k w_k ||E_k||_1^2 over the 2P columns E_k of E (w >= 0), which
    bounds every |term| below, and every grid sine and cosine at most 1 in size:

    * direction: the screen reads the sines and cosines that :func:`_grid_rows`
      builds rows from and is analysed at their exact products n; a built row
      rounds each product once, so each n . E_k moves by at most u ||E_k||_1:
      2u S;
    * the three-term products n . E_k (gamma_3, doubled by the square): 6u S, and
      the square itself: u S;
    * the 2P-term weighted sum of non-negative terms: 2P u S;
    * K's assembly, one rounded E_mk w_k and a 2P-term sum per entry: (2P + 1) u S;
    * the screen's arithmetic: each monomial of n^T K n passes at most 8 rounded
      operations on its way to a row value: 8u S;
    * the column bound (alpha + gamma)/2 - hypot((gamma - alpha)/2, beta), the
      lowest eigenvalue of the meridian's 2x2 form: two rounded sums, hypot within
      1 ulp and one subtraction, 4u S; a row value rounds 4 operations of that
      form, 4u S; and the rounded sin^2 + cos^2 of a row's theta is 1 within 16u
      (sin and cos taken to be within 4 ulp), times |eigenvalue| <= S: 16u S;
    * the thresholds U + 2 delta and M + 2 delta of :func:`_candidate_rows` round
      once each: 2u S.

    The sum, (4P + 44) u S, is doubled to cover the second-order terms and the
    rounding of S itself: delta = (4P + 44) eps S, ``landscape_rounding(2P)`` times
    S.  K's eigenvalues lie in [0, S], so a step of r = sqrt(delta / S) =
    sqrt((4P + 44) eps) from the landscape's minimum moves it by at most
    S r^2 <= delta: below r no compass stencil can tell a neighbour from its centre.
    """
    _require_single(rho)
    _require_qubit(rho.dims)
    e, w = np.ascontiguousarray(_pauli_pairs(rho)), _pair_weights(rho, weights)

    def landscape(ns):
        amplitudes = ns @ e
        return np.square(amplitudes, out=amplitudes) @ w

    rounding = landscape_rounding(e.shape[1])
    scale = w @ np.abs(e).sum(axis=0) ** 2
    landscape.screen = (e * w) @ e.T, rounding * scale, float(np.sqrt(rounding))
    return landscape


@functools.lru_cache(maxsize=8)
def _grid_angles(n_theta: int, n_phi: int):
    """(thetas, phis, trig) of the (n_theta, n_phi) grid: theta in [0, pi] with both
    poles, phi_j = j 2 pi / n_phi, and trig = (sin theta, cos theta, cos phi, sin phi),
    the one set of sines and cosines that :func:`_grid_rows` builds directions from
    and :func:`_candidate_rows` reads.  Built once per grid shape, on first use, and
    read-only, as every caller of a shape shares them."""
    thetas, phis = np.linspace(0.0, np.pi, n_theta), np.arange(n_phi) * (2.0 * np.pi / n_phi)
    arrays = thetas, phis, np.sin(thetas), np.cos(thetas), np.cos(phis), np.sin(phis)
    for array in arrays:
        array.flags.writeable = False
    return arrays[0], arrays[1], arrays[2:]


def _grid_rows(trig, rows: np.ndarray) -> np.ndarray:
    """The unit vectors at the flat indices ``rows`` of the theta-major grid whose
    ``trig`` (:func:`_grid_angles`) holds one sine and cosine per theta and per
    column: row t n_cols + c is (sin t cos c, sin t sin c, cos t), each product
    rounded once, so it is bitwise ``_bloch`` of the meshgrid's angles."""
    sin_t, cos_t, cos_p, sin_p = trig
    t, c = np.divmod(rows, len(cos_p))
    ns = np.empty((len(rows), 3))
    s = sin_t[t]
    np.multiply(s, cos_p[c], out=ns[:, 0])
    np.multiply(s, sin_p[c], out=ns[:, 1])
    ns[:, 2] = cos_t[t]
    return ns


def _grid_values(landscape, n_theta: int, n_phi: int):
    """(thetas, phis, values) of ``landscape``, a map from an (N, 3) stack of unit
    vectors to N values, on theta in [0, pi] and the n_phi columns spaced over
    [0, 2 pi); values has shape (n_theta, n_phi), and the angles are fresh copies.

    The grid is scored ``_GRID_BLOCK`` rows at a time, built by :func:`_grid_rows`,
    so no (N, 2P) intermediate is built.  Each value reads only its own row, and
    the blocks give the bits of one whole-stack call.
    """
    thetas, phis, trig = _grid_angles(n_theta, n_phi)
    values = np.empty(n_theta * n_phi)
    for start in range(0, len(values), _GRID_BLOCK):
        rows = np.arange(start, min(start + _GRID_BLOCK, len(values)))
        values[start : start + _GRID_BLOCK] = landscape(_grid_rows(trig, rows))
    return thetas.copy(), phis.copy(), values.reshape(n_theta, n_phi)


def _candidate_rows(form, slack, trig):
    """The rows of the theta-major grid of ``trig`` (:func:`_grid_angles`) that can
    hold its lowest literal value, as flat indices, yielded band by band in
    ascending order: each row whose screen value lies within 2 delta of M, the
    lowest screen value of the columns kept.  A screen (0, inf) keeps every row.

    ``form`` K and ``slack`` delta are a landscape's screen (see
    :func:`_pauli_landscape`).  On the
    column phi, n^T K n is the meridian form alpha sin^2 + 2 beta sin cos + gamma cos^2
    of theta, bounded below by the lowest eigenvalue of [[alpha, beta], [beta, gamma]].
    Columns whose bound exceeds U + 2 delta are dropped in O(n_phi), U >= M being
    the lowest screen value of the column with the lowest bound, or that bound if it
    is larger, so that this column always passes; the others are evaluated at every
    theta.  Let a screen value differ from its row's literal value by at most a, and
    a column bound exceed the screen values of its rows by at most b, a + b <= delta.
    Every screen value, so U and M too, is then at least m - a, m the grid's lowest
    literal value, so a row holding m is kept: its column's bound is at most
    m + a + b <= U + 2 delta, and its screen value at most m + a <= M + 2 delta.

    The kept columns are screened in bands of thetas, at most ``_SCREEN_CHUNK``
    values per band: a first pass finds M, and a second yields each band's kept
    rows, reusing the first band's values (every theta's, unless the landscape
    nearly ties).  So memory stays bounded by one band, even on a landscape that
    ties everywhere and keeps every row."""
    sin_t, cos_t, cos_p, sin_p = trig
    alpha = (form[0, 0] * cos_p + 2.0 * form[0, 1] * sin_p) * cos_p + form[1, 1] * sin_p * sin_p
    beta = form[0, 2] * cos_p + form[1, 2] * sin_p
    gamma = form[2, 2]
    bound = (alpha + gamma) / 2.0 - np.hypot((gamma - alpha) / 2.0, beta)

    def band_values(band, cols):
        s, c = sin_t[band, None], cos_t[band, None]
        return (alpha[cols] * s + 2.0 * beta[cols] * c) * s + gamma * c * c

    lowest = bound.argmin()
    upper = max(band_values(slice(None), [lowest]).min(), bound[lowest])
    cols = np.flatnonzero(bound <= upper + 2.0 * slack)
    step = max(1, _SCREEN_CHUNK // len(cols))
    bands = [slice(i, i + step) for i in range(0, len(sin_t), step)]
    values = band_values(bands[0], cols)
    least = min([values.min()] + [band_values(band, cols).min() for band in bands[1:]])
    for i, band in enumerate(bands):
        if i:
            values = band_values(band, cols)
        t, c = np.nonzero(values <= least + 2.0 * slack)
        rows = (t + band.start) * len(cos_p) + cols[c]
        del values, t, c  # not held while the caller scores the band's rows
        yield rows


def _sphere_minimum(landscape, grid: tuple[int, int]) -> tuple[float, np.ndarray]:
    """Minimum of ``landscape`` over unit vectors: grid argmin, then compass search.

    ``landscape`` must be even in n, f(-n) = f(n), as the two it serves, the QFI
    and the skew information of n . sigma, are: H and -H are one generator.
    So only the half-grid phi < pi of ``grid`` = (n_theta, n_phi), its first
    ceil(n_phi / 2) columns, is searched.  For even n_phi every other grid point
    is the antipode of a scored one; for odd n_phi the half-grid still comes
    within one spacing of every axis.  Of the half-grid's rows
    (:func:`_grid_rows`), the landscape scores those :func:`_candidate_rows`
    keeps by its ``screen`` (K, delta, r) (see :func:`_pauli_landscape`), every
    row that can hold the half-grid's lowest value, in ascending order and at
    most ``_GRID_BLOCK`` per call; the first of equal values is kept, strict
    ``<`` across calls, so the grid stage returns the value and point of
    ``np.argmin`` over a full scan, up to rounding: a row's value can differ in
    its last bit between calls of different row counts.
    Then the landscape reads one row, the lowest eigenvector of K from
    ``np.linalg.eigh``.  If that value undercuts the grid's, a 3x3 stencil in
    (theta, phi) starts there with both steps 2r, and otherwise at the grid
    point, one grid spacing wide.  Free to cross phi = pi, it moves to its
    lowest point if that undercuts ``best``, the value last accepted, and
    otherwise halves its steps, until both fall below r, the landscape's
    rounding step.  The screen only places the start: every value is the
    landscape's.  As ``best`` only falls, the search stops; a fresh centre value
    can read a few ulps high in another batch row and keep it moving.  Returns
    (value, direction); the direction is defined up to sign.

    The stencil's nine points hold three thetas and three phis, so each step
    takes one sine and one cosine of those six angles and fills the nine
    directions, as outer products, into one reused (9, 3) buffer: row 3 a + b
    is bitwise ``_bloch(theta + (a - 1) d_theta, phi + (b - 1) d_phi)`` for a, b
    in 0, 1, 2, since x + (-1.0) s is x - s and x + 0.0 s is x (no angle is
    ever -0.0).  Every stencil call passes that same buffer, so ``landscape``
    must not keep its argument.
    """
    n_theta, n_phi = grid
    n_cols = (n_phi + 1) // 2
    thetas, phis, (sin_t, cos_t, cos_p, sin_p) = _grid_angles(n_theta, n_phi)
    trig = sin_t, cos_t, cos_p[:n_cols], sin_p[:n_cols]
    form, slack, stop = landscape.screen
    best, row = np.inf, 0
    for rows in _candidate_rows(form, slack, trig):
        for start in range(0, len(rows), _GRID_BLOCK):
            block = rows[start : start + _GRID_BLOCK]
            values = landscape(_grid_rows(trig, block))
            k = int(values.argmin())
            if values[k] < best:
                best, row = values[k], int(block[k])
    i, j = divmod(row, n_cols)
    theta, phi = float(thetas[i]), float(phis[j])
    d_theta, d_phi = float(thetas[1] - thetas[0]), float(phis[1] - phis[0])
    x, y, z = np.linalg.eigh(form)[1][:, 0]
    # The polar angles of K's lowest eigenvector; + 0.0 turns a phi of -0.0 into 0.0.
    lowest = float(np.arctan2(np.hypot(x, y), z)), float(np.arctan2(y, x)) + 0.0
    value = landscape(_bloch(*lowest)[None])[0]
    if value < best:
        best, (theta, phi), d_theta, d_phi = value, lowest, 2.0 * stop, 2.0 * stop
    angles, trig, stencil = np.empty(6), np.empty((2, 6)), np.empty((3, 3, 3))
    # Views into the buffers: sin and cos of the thetas, (cos, sin) of the phis.
    sin_t, cos_t, cos_sin_p = trig[0, :3, None, None], trig[1, :3, None], trig[::-1, 3:].T
    while max(d_theta, d_phi) >= stop:
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


def qfi_sphere_grid(
    rho: DensityMatrix, n_theta: int, n_phi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QFI landscape over generator directions n(theta, phi) on the Bloch sphere.

    Evaluates the spectral QFI sum independently at every grid direction and
    returns (thetas, phis, F) with F of shape (n_theta, n_phi).  Both counts
    must be positive integers.
    """
    n_theta, n_phi = _count(n_theta, "n_theta", 1), _count(n_phi, "n_phi", 1)
    thetas, phis, values = _grid_values(_pauli_landscape(rho, _qfi_weights), n_theta, n_phi)
    return thetas, phis, 4.0 * values


def ip_grid_search(
    rho: DensityMatrix, n_theta: int = 180, n_phi: int = 360
) -> tuple[float, np.ndarray]:
    """Minimum of qfi/4 over the Bloch sphere, by direct search.

    Sums the QFI separately for every direction, never through
    :func:`qfi_quadratic_form`, so it cross-checks :func:`interferometric_power`:
    the half phi < pi of an (n_theta, n_phi) grid, at least 64 points per angle
    and at most ``_MAX_HALF_GRID`` = 2^20 points in all, n_theta * ceil(n_phi / 2)
    (the QFI of -n is that of n), then the compass search of the other sphere
    oracles: from the lowest eigenvector of the landscape's own pair-sum form when
    its QFI undercuts the grid's, down to the landscape's rounding step, about
    1e-7 rad.  Returns (value, direction), the direction defined up to sign.
    """
    n_theta, n_phi = _count(n_theta, "n_theta", 1), _count(n_phi, "n_phi", 1)
    if n_theta < 64 or n_phi < 64:
        raise ParameterOutOfRangeError("grid must have at least 64 points per angle")
    if n_theta * ((n_phi + 1) // 2) > _MAX_HALF_GRID:
        raise ParameterOutOfRangeError(
            f"grid half phi < pi must hold at most {_MAX_HALF_GRID} points"
        )
    return _sphere_minimum(_pauli_landscape(rho, _qfi_weights), (n_theta, n_phi))


def ip_bell_diagonal(c1: float, c2: float, c3: float) -> float:
    """Interferometric power of the Bell-diagonal state with correlations (c1, c2, c3).

    Uses the closed expression
    (||C||_2^2 - ||C||_inf^2 + 2 det C) / (1 - ||C||_inf^2); when the
    denominator degenerates (near-pure states) the spectral route on the
    explicit 4x4 matrix is used instead.  A triple outside the state tetrahedron
    raises ``InvalidCorrelationTripleError``, as ``bell_diagonal_state`` does.
    """
    c1, c2, c3 = _tetrahedron(c1, c2, c3)
    c = np.array([c1, c2, c3], dtype=float)
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
    _require_single(rho)
    e = _pair_elements(rho, ham.matrix)
    return float(e**2 @ _pair_weights(rho, _skew_weights))


def local_quantum_uncertainty(rho: DensityMatrix) -> float:
    """Worst-case skew information over qubit generators on A with spectrum (-1, +1),
    or for a stack of states the list of them.

    Equals the smallest eigenvalue of the 3x3 skew form K = I - W with
    W_mn = Tr[sqrt(rho) sigma_m x I sqrt(rho) sigma_n x I], built directly in
    the eigenbasis of rho.  Lower-bounds the interferometric power for every
    state.
    """
    return _form_minimum(rho, _skew_weights)


def skew_grid_search(rho: DensityMatrix) -> tuple[float, np.ndarray]:
    """Dense-grid minimization of the skew information over the Bloch sphere.

    Cross-checks :func:`local_quantum_uncertainty` without going through the
    3x3 form: the skew information is summed separately for every direction,
    first on the half phi < pi of the ``SEARCH_GRID`` (it is even in n) and then
    along a compass search on the angles, as :func:`ip_grid_search` polishes, from
    the grid argmin or the lowest eigenvector of the landscape's own pair-sum
    form, whichever reads lower.  Returns (value, direction), the direction
    defined up to sign.
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
    _require_single(rho)
    _require_qubit(rho.dims)
    f = np.trace(apply_local(_PAULI_STACK, rho.matrix, rho.dims), axis1=1, axis2=2).real
    norm = float(np.linalg.norm(f))
    direction = f / norm if norm > 0.0 else np.array([0.0, 0.0, 1.0])
    return float(np.trace(rho.matrix).real - f @ f), direction
