import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ipower import correlations, verify
from ipower.correlations import (
    interferometric_power,
    ip_bell_diagonal,
    ip_grid_search,
    local_quantum_uncertainty,
    min_local_variance,
    qfi,
    qfi_quadratic_form,
    qfi_sphere_grid,
    skew_grid_search,
    skew_information,
    sld,
)
from ipower.errors import (
    DimensionMismatchError,
    InvalidCorrelationTripleError,
    SubsystemANotQubitError,
)
from ipower.linalg import (
    RANK_CUTOFF,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    degenerate_clusters,
    landscape_rounding,
    tensor,
)
from ipower.probes import (
    ProbeFamily,
    bell_diagonal_state,
    bell_probe,
    classical_probe,
    discordant_probe,
    flip_angle_grid,
    make_probe,
    separable_discordant_state,
    setting_hamiltonian,
    werner_state,
)
from ipower.sampling import (
    apply_channel_b,
    haar_unitary,
    random_classical_quantum_state,
    random_density_matrix,
    random_isometry_kraus,
    random_pure_density_matrix,
    remix_degenerate_eigenspaces,
)
from ipower.states import DensityMatrix, LocalHamiltonian, evolve
from ipower.verify import (
    check_channel_monotonicity,
    check_faithfulness,
    check_hierarchy,
    check_local_unitary_invariance,
    check_pure_state_reduction,
)

MIXED = DensityMatrix.from_matrix(np.eye(4) / 4.0, (2, 2))


def pure_state(ket, dims=(2, 2)):
    ket = np.asarray(ket, dtype=complex)
    ket = ket / np.linalg.norm(ket)
    return DensityMatrix.from_matrix(np.outer(ket, ket.conj()), dims)


def variance_oracle(rho, ham):
    """4 (<H^2> - <H>^2) evaluated with explicit matrices."""
    h = tensor(ham.matrix, np.eye(rho.d_b))
    first = np.trace(rho.matrix @ h).real
    second = np.trace(rho.matrix @ h @ h).real
    return 4.0 * (second - first * first)


def full_pair_sum(rho, ham, weight):
    """1/2 sum_{i,l} w(q_i, q_l) |<psi_i|H x I|psi_l>|^2 over the full matrices."""
    q, v = rho.eigenvalues, rho.eigenvectors
    elements = dagger(v) @ tensor(ham.matrix, np.eye(rho.d_b)) @ v
    w = np.array([[weight(a, b) for b in q] for a in q])
    return 0.5 * np.sum(w * np.abs(elements) ** 2)


def qfi_weight(a, b):
    return (a - b) ** 2 / (a + b) if a + b > RANK_CUTOFF else 0.0


def skew_weight(a, b):
    return (np.sqrt(a) - np.sqrt(b)) ** 2


def random_generator(d_a, rng):
    if d_a == 2:
        n = rng.standard_normal(3)
        return LocalHamiltonian.from_bloch(n / np.linalg.norm(n))
    z = rng.standard_normal((d_a, d_a)) + 1j * rng.standard_normal((d_a, d_a))
    return LocalHamiltonian.from_matrix((z + dagger(z)) / 2.0)


@pytest.mark.parametrize("dims", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2)])
def test_pair_sums_equal_the_full_double_sums(dims):
    # Every rank from 1 to 2 d_B; d_A = 3 takes a generator that is no Bloch vector.
    rng = np.random.default_rng(150 + 10 * dims[0] + dims[1])
    for rank in range(1, 2 * dims[1] + 1):
        rho = random_density_matrix(dims, rng, env_dim=rank)
        ham = random_generator(dims[0], rng)
        assert qfi(rho, ham) == pytest.approx(
            4.0 * full_pair_sum(rho, ham, qfi_weight), rel=1e-12, abs=1e-14
        )
        assert skew_information(rho, ham) == pytest.approx(
            full_pair_sum(rho, ham, skew_weight), rel=1e-12, abs=1e-14
        )


class TestQfi:
    def test_discordant_probe_under_sigma_z(self):
        for p in (0.0, 0.3, 0.8, 1.0):
            value = qfi(discordant_probe(p), setting_hamiltonian(1))
            assert value == pytest.approx(8 * p**2 / (1 + p**2), abs=1e-12)
        assert qfi(discordant_probe(1.0), setting_hamiltonian(1)) == pytest.approx(4.0)

    def test_classical_probe_under_sigma_x_vanishes(self):
        for p in (0.1, 0.5, 1.0):
            assert qfi(classical_probe(p), setting_hamiltonian(3)) <= 1e-14

    def test_pure_product_state_equals_variance_oracle(self):
        plus_zero = pure_state([1, 0, 1, 0])
        ham = setting_hamiltonian(1)
        assert qfi(plus_zero, ham) == pytest.approx(4.0, abs=1e-12)
        assert qfi(plus_zero, ham) == pytest.approx(
            variance_oracle(plus_zero, ham), abs=1e-12
        )

    def test_pure_states_equal_variance_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rho = random_pure_density_matrix((2, 2), rng)
            n = rng.standard_normal(3)
            ham = LocalHamiltonian.from_bloch(n / np.linalg.norm(n))
            assert qfi(rho, ham) == pytest.approx(
                variance_oracle(rho, ham), abs=1e-10
            )

    def test_dimension_mismatch(self):
        rho = DensityMatrix.from_matrix(np.eye(4) / 4.0, (4, 1))
        with pytest.raises(DimensionMismatchError):
            qfi(rho, setting_hamiltonian(1))

    def test_eigenvector_phase_invariance(self):
        rng = np.random.default_rng(8)
        rho = random_density_matrix((2, 2), rng)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, rho.dim))
        rephased = DensityMatrix(
            rho.matrix, rho.dims, rho.eigenvalues, rho.eigenvectors * phases
        )
        ham = setting_hamiltonian(2)
        assert qfi(rephased, ham) == pytest.approx(qfi(rho, ham), abs=1e-12)


class TestSld:
    def test_commuting_state_gives_zero(self):
        rho = DensityMatrix.from_matrix(np.diag([0.4, 0.3, 0.2, 0.1]), (2, 2))
        decomposition = sld(rho, LocalHamiltonian.from_matrix(SIGMA_Z), 0.7)
        assert np.max(np.abs(decomposition.eigenvalues)) <= 1e-12

    def test_classical_probe_worst_setting_gives_zero(self):
        decomposition = sld(classical_probe(0.8), setting_hamiltonian(3), math.pi / 4)
        assert np.max(np.abs(decomposition.eigenvalues)) <= 1e-12

    @pytest.mark.parametrize("p", [0.13, 0.5, 0.9])
    def test_discordant_probe_eigenvalues(self, p):
        # Solved symbolically: eigenvalues +-2p, each twice; cross-checked
        # against Tr[rho L^2] = 4 p^2.
        rho = discordant_probe(p)
        ham = setting_hamiltonian(3)
        decomposition = sld(rho, ham, math.pi / 4)
        assert_allclose(
            np.sort(decomposition.eigenvalues),
            [-2 * p, -2 * p, 2 * p, 2 * p],
            atol=1e-10,
        )
        encoded = evolve(rho, ham, math.pi / 4)
        operator = decomposition.operator()
        trace = np.trace(encoded.matrix @ operator @ operator).real
        assert trace == pytest.approx(4 * p**2, abs=1e-10)

    def test_covariant_under_the_phase(self):
        # L(phi0) = (U x I) L(0) (U x I)†, U = exp(-i phi0 H): H commutes with U.
        worst = 0.0
        for label, k, p in product(("Q", "C", "werner"), (1, 2, 3), flip_angle_grid()):
            rho = make_probe(ProbeFamily(label, (p,)))
            ham = setting_hamiltonian(k)
            at_zero = sld(rho, ham, 0.0).operator()
            for phi0 in (math.pi / 8, math.pi / 4, 1.2):
                u = tensor(ham.phase_unitary(phi0), np.eye(rho.d_b))
                moved = sld(rho, ham, phi0).operator()
                worst = max(worst, np.max(np.abs(moved - u @ at_zero @ dagger(u))))
        assert worst <= 1e-14

    @pytest.mark.parametrize("d_b", [2, 3, 4])
    def test_stacked_tie_break_equals_each_states_own(self, d_b):
        # The two-qubit probe families give L(0) clusters only at (start, size)
        # (0, 2), (0, 4), (1, 2) and (2, 2).  A rank-r qubit-qudit state has a zero
        # cluster of size d - 2r at start r, and the maximally mixed state one
        # over all d columns; each run of a shuffled stack must get its own bits.
        rng = np.random.default_rng(60 + d_b)
        dims, d = (2, d_b), 2 * d_b
        matrices = [
            random_density_matrix(dims, rng, env_dim=rank).matrix
            for rank in range(1, d + 1)
            for _ in range(2)
        ]
        matrices.append(np.eye(d) / d)
        stack = DensityMatrix.from_matrix(np.array(matrices)[rng.permutation(len(matrices))], dims)
        for ham in (setting_hamiltonian(2), random_generator(2, rng)):
            values, basis = correlations._sld_stack(stack, ham.matrix, ham.phase_unitary(0.3))
            shapes = set()
            for i, (run_values, run_basis) in enumerate(zip(values, basis)):
                own = sld(stack[i], ham, 0.3)
                assert own.eigenvalues.tobytes() == run_values.tobytes()
                assert own.eigenbasis.tobytes() == run_basis.tobytes()
                shapes |= {(s, e - s) for s, e in degenerate_clusters(run_values.tolist())}
            assert shapes == {(r, d - 2 * r) for r in range(d_b)}


class TestQuadraticForm:
    def test_maximally_mixed_gives_zero(self):
        assert_allclose(qfi_quadratic_form(MIXED), np.zeros((3, 3)), atol=1e-14)

    def test_werner_form_is_isotropic(self):
        for f in (0.2, 0.5, 0.9):
            expected = 2 * f**2 / (1 + f) * np.eye(3)
            assert_allclose(qfi_quadratic_form(werner_state(f)), expected, atol=1e-12)

    def test_discordant_probe_smallest_eigenvalue(self):
        for p in (0.3, 0.7, 1.0):
            form = qfi_quadratic_form(discordant_probe(p))
            assert np.linalg.eigvalsh(form)[0] == pytest.approx(p**2, abs=1e-12)

    def test_matches_qfi_along_directions(self):
        rng = np.random.default_rng(10)
        rho = random_density_matrix((2, 2), rng)
        form = qfi_quadratic_form(rho)
        for _ in range(10):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            ham = LocalHamiltonian.from_bloch(n)
            assert n @ form @ n == pytest.approx(qfi(rho, ham) / 4.0, abs=1e-12)

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            form = qfi_quadratic_form(random_density_matrix((2, 2), rng))
            assert_allclose(form, form.T, atol=1e-14)
            assert np.linalg.eigvalsh(form)[0] >= -1e-12

    def test_requires_qubit_a(self):
        rho = DensityMatrix.from_matrix(np.eye(6) / 6.0, (3, 2))
        with pytest.raises(SubsystemANotQubitError):
            qfi_quadratic_form(rho)


class TestInterferometricPower:
    def test_classical_probe_vanishes(self):
        for p in (0.0, 0.4, 1.0):
            assert interferometric_power(classical_probe(p)) <= 1e-10

    def test_bell_state_reaches_one(self):
        assert interferometric_power(werner_state(1.0)) == pytest.approx(1.0)

    def test_separable_state_reaches_half(self):
        value = interferometric_power(separable_discordant_state())
        assert value == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("d_b, seed", [(2, 13), (3, 116), (4, 117)])
    def test_faithfulness_on_classical_states(self, d_b, seed):
        result = check_faithfulness(np.random.default_rng(seed), 10, 1e-9, d_b)
        assert result.passed, result.line()

    @pytest.mark.parametrize("d_b", [2, 3, 4])
    def test_local_unitary_invariance_and_channel_monotonicity(self, d_b):
        # 60 draws give at least 10 full-rank states whose uncertainty the
        # invariance check compares (18, 11 and 11 for d_B = 2, 3, 4), and at
        # least 20 random isometric channels.
        rng = np.random.default_rng(120 + d_b)
        invariance = check_local_unitary_invariance(rng, 60, 1e-9, d_b)
        assert invariance.passed and invariance.trials - 60 >= 10, invariance.line()
        monotonicity = check_channel_monotonicity(rng, 60, 1e-9, d_b)
        assert monotonicity.passed, monotonicity.line()


def reference_form_minimum(rho, weights):
    """The smallest eigenvalue of one state's 3x3 form, clamped at 0, as the
    per-state path computed it before the stacked kernel: the reference the stack
    must equal bitwise."""
    i, l = np.triu_indices(rho.dim, 1)
    el = correlations._elements(rho.eigenvectors, rho.dims, correlations._PAULI_STACK)[:, i, l]
    w = weights(rho.eigenvalues[i], rho.eigenvalues[l])
    e, w = np.concatenate((el.real, el.imag), axis=1), np.concatenate((w, w))
    form = (e * w) @ e.T
    return max(float(np.linalg.eigvalsh((form + form.T) / 2.0)[0]), 0.0)


def _float_bits(values):
    return [np.float64(x).tobytes() for x in values]


def stacked(states):
    """One stacked state of the matrices of ``states`` (equal dims)."""
    return DensityMatrix.from_matrix(np.stack([rho.matrix for rho in states]), states[0].dims)


class TestStackedForms:
    @pytest.mark.parametrize("d_b", [2, 3, 4])
    def test_stack_equals_the_per_state_path_at_every_rank(self, d_b):
        # Two states of each rank 1 .. 2 d_B, so pure states and eigenvalue dust
        # are in the stack.
        rng = np.random.default_rng(200 + d_b)
        states = [
            random_density_matrix((2, d_b), rng, env_dim=rank)
            for rank in range(1, 2 * d_b + 1)
            for _ in range(2)
        ]
        stack = stacked(states)
        powers, uncertainties = interferometric_power(stack), local_quantum_uncertainty(stack)
        assert _float_bits(powers) == _float_bits(map(interferometric_power, states))
        assert _float_bits(uncertainties) == _float_bits(map(local_quantum_uncertainty, states))
        for weights, values in ((correlations._qfi_weights, powers),
                                (correlations._skew_weights, uncertainties)):
            reference = [reference_form_minimum(rho, weights) for rho in states]
            assert _float_bits(values) == _float_bits(reference)
        forms = qfi_quadratic_form(stack)
        assert forms.shape == (len(states), 3, 3)
        for form, rho in zip(forms, states):
            assert form.tobytes() == qfi_quadratic_form(rho).tobytes()

    def test_stack_equals_the_per_state_path_on_the_probes(self):
        states = [make_probe(ProbeFamily(label, (p,))) for label in ("Q", "C", "werner")
                  for p in flip_angle_grid()]
        states += [separable_discordant_state(), bell_probe()]
        stack = stacked(states)
        for measure in (interferometric_power, local_quantum_uncertainty):
            assert _float_bits(measure(stack)) == _float_bits(map(measure, states))
        assert _float_bits(interferometric_power(stack)) == _float_bits(
            reference_form_minimum(rho, correlations._qfi_weights) for rho in states
        )


def reference_pair_matrix(rho, ops, weights):
    """The pair matrix read through a boolean mask of the full d x d grid, weights
    and all: the construction the cached pair indices replace, kept as its reference."""
    upper = np.arange(rho.dim)[:, None] < np.arange(rho.dim)
    el = correlations._elements(rho.eigenvectors, rho.dims, ops)[:, upper]
    q = rho.eigenvalues
    w = weights(q[:, None], q[None, :])[upper]
    return np.concatenate((el.real, el.imag), axis=1), np.concatenate((w, w))


# (theta, phi) offsets of the compass-search stencil, in the row order of its
# calls; row 4 is the centre.
STENCIL = np.array([(a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)])


def reference_sphere_minimum(landscape, grid):
    """The search the sphere oracles must equal bitwise, sharing none of their grid
    code: one landscape call scores the whole half-grid phi < pi, built from
    ``np.meshgrid`` and ``_bloch``; the compass starts at the lowest eigenvector of
    the screen's form, with steps of twice the screen's stop, if the landscape there
    undercuts the grid's best, and at the grid argmin with the grid spacing
    otherwise; and the nine stencil directions are built with ``_bloch`` at every
    step, until both steps fall below the stop."""
    n_theta, n_phi = grid
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.arange((n_phi + 1) // 2) * (2.0 * np.pi / n_phi)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    values = landscape(correlations._bloch(tt, pp).reshape(-1, 3))
    k = int(np.argmin(values))
    i, j = divmod(k, len(phis))
    best, x = values[k], np.array([thetas[i], phis[j]])
    step = np.array([thetas[1] - thetas[0], phis[1] - phis[0]])
    form, _, stop = landscape.screen
    v = np.linalg.eigh(form)[1][:, 0]
    # Polar angles of v; + 0.0 turns a phi of -0.0 into 0.0.
    start = np.array([np.arctan2(np.hypot(v[0], v[1]), v[2]), np.arctan2(v[1], v[0])]) + 0.0
    value = landscape(correlations._bloch(*start)[None])[0]
    if value < best:
        best, x, step = value, start, np.array([2.0 * stop, 2.0 * stop])
    while step.max() >= stop:
        points = x + STENCIL * step
        values = landscape(correlations._bloch(points[:, 0], points[:, 1]))
        k = int(np.argmin(values))
        if values[k] < best:
            best, x = values[k], points[k]
        else:
            step = step / 2.0
    return float(best), correlations._bloch(*x)


def screen_states(d_b, rng):
    """Random states of every rank (rank 1 is pure), the maximally mixed state and a
    classical-quantum state on a qubit and a d_B-level B."""
    dims = (2, d_b)
    states = [random_density_matrix(dims, rng, env_dim=rank) for rank in range(1, 2 * d_b + 1)]
    mixed = DensityMatrix.from_matrix(np.eye(2 * d_b) / (2 * d_b), dims)
    return [*states, mixed, random_classical_quantum_state(dims, rng)]


def near_tie_states(n, rng):
    """Bell-diagonal states with degenerate forms, each under n Haar unitaries on A:
    (0.3, 0.3, -0.1), whose lowest eigenvalue is double, so a great circle of
    directions ties, and (0.2, 0.2, 0.2), whose forms are multiples of the identity,
    so every grid row ties to rounding."""
    states = []
    for triple in ((0.3, 0.3, -0.1), (0.2, 0.2, 0.2)):
        base = bell_diagonal_state(*triple).matrix
        for _ in range(n):
            u = tensor(haar_unitary(2, rng), np.eye(2))
            states.append(DensityMatrix.from_matrix(u @ base @ dagger(u), (2, 2)))
    return states


def scoring_every_block(landscape):
    """``landscape`` with the screen (0, inf), which keeps every row of the grid, and
    the stop of a two-qubit landscape."""
    landscape.screen = np.zeros((3, 3)), np.inf, math.sqrt(landscape_rounding(12))
    return landscape


def recording(landscape):
    """``landscape`` under its own screen, keeping a copy of the rows of every call in
    ``.calls``: the search reuses its stencil buffer from call to call."""
    calls = []

    def recorded(ns):
        calls.append(np.array(ns))
        return landscape(ns)

    recorded.screen, recorded.calls = landscape.screen, calls
    return recorded


def split_calls(calls):
    """(grid, start, stencils) of one search's landscape calls, told apart by position,
    as a grid call can hold 1 or 9 rows too: the stencils are the trailing run of 9-row
    calls, the one-row start comes just before them, and every earlier call is the
    grid stage's."""
    k = len(calls)
    while len(calls[k - 1]) == 9:
        k -= 1
    return calls[: k - 1], calls[k - 1], calls[k:]


def half_grid_rows(grid):
    """The rows phi < pi of the (n_theta, n_phi) meshgrid, theta-major, by ``_bloch``."""
    tt, pp = np.meshgrid(
        np.linspace(0.0, np.pi, grid[0]),
        np.arange(grid[1]) * (2.0 * np.pi / grid[1]),
        indexing="ij",
    )
    half = pp < np.pi
    assert half.sum() == grid[0] * math.ceil(grid[1] / 2)
    return correlations._bloch(tt[half], pp[half])


def planted_quadratic():
    """An even landscape n^T A n whose minimum 0.3 sits at +-n*, n* at phi = 4.0,
    with a screen that keeps every row."""
    n_star = correlations._bloch(1.1, 4.0)
    basis = np.linalg.qr(np.column_stack([n_star, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))[0]
    form = (basis * [0.3, 1.0, 2.0]) @ basis.T
    return scoring_every_block(lambda ns: np.einsum("gm,mn,gn->g", ns, form, ns))


@pytest.mark.parametrize("d_b", [1, 2, 3, 4])
def test_pair_matrix_equals_the_masked_reference(d_b):
    rng = np.random.default_rng(170 + d_b)
    rho = random_density_matrix((2, d_b), rng, env_dim=int(rng.integers(1, 2 * d_b + 1)))
    ops = [np.array([SIGMA_X, SIGMA_Y, SIGMA_Z]), [random_generator(2, rng).matrix]]
    for stack, weights in product(ops, (correlations._qfi_weights, correlations._skew_weights)):
        e, w = correlations._pair_elements(rho, stack), correlations._pair_weights(rho, weights)
        ref_e, ref_w = reference_pair_matrix(rho, stack, weights)
        assert e.tobytes() == ref_e.tobytes() and w.tobytes() == ref_w.tobytes()
        # The layout of E sets how BLAS rounds the 3x3 forms built from it.
        assert e.flags.f_contiguous == ref_e.flags.f_contiguous
    assert not any(index.flags.writeable for index in correlations._upper_pairs(rho.dim))


class TestGridSearch:
    def test_discordant_probe_equator(self):
        value, direction = ip_grid_search(discordant_probe(0.8), 180, 360)
        assert value == pytest.approx(0.64, abs=1e-3)
        theta = math.acos(np.clip(direction[2], -1, 1))
        assert abs(theta - math.pi / 2) <= 0.02

    def test_classical_probe_worst_direction(self):
        value, direction = ip_grid_search(classical_probe(0.8), 180, 360)
        assert value <= 1e-4
        assert abs(abs(direction[0]) - 1.0) <= 1e-3

    def test_maximally_mixed_is_flat_zero(self):
        value, _ = ip_grid_search(MIXED, 64, 64)
        assert value <= 1e-14
        _, _, grid = qfi_sphere_grid(MIXED, 64, 64)
        assert np.max(np.abs(grid)) <= 1e-14

    @pytest.mark.parametrize("d_b, seed", [(2, 15), (3, 118), (4, 119)])
    def test_never_below_closed_form(self, d_b, seed):
        # 64x129 has an odd phi count: its half-grid holds no antipode of the
        # points it leaves out, only points within one spacing of them.
        rng = np.random.default_rng(seed)
        for _ in range(10):
            rho = random_density_matrix(
                (2, d_b), rng, env_dim=int(rng.integers(1, 2 * d_b + 1))
            )
            closed = interferometric_power(rho)
            for grid in ((64, 128), (64, 129)):
                value, direction = ip_grid_search(rho, *grid)
                assert closed - 1e-12 <= value <= closed + 1e-12
                assert qfi(rho, LocalHamiltonian.from_bloch(direction)) / 4 == (
                    pytest.approx(value, abs=1e-12)
                )

    @pytest.mark.parametrize(
        "triple, tilt, polar",
        [((0.1, 0.2, 0.5), 1e-3, 1e-3), ((0.3, 0.3 - 1e-7, -0.1), 0.02, math.pi / 2)],
        ids=["worst-direction-near-the-pole", "near-degenerate-lowest-pair"],
    )
    def test_tilted_bell_diagonal_states_take_few_calls(self, triple, tilt, polar, monkeypatch):
        # Bell-diagonal states tilted about x on A by ``tilt``, whose worst direction
        # lies ``polar`` rad from the pole.  For the first, a stencil's phi steps
        # barely move there; the second's two lowest eigenvalues of the form are
        # about 1e-7 apart, so its landscape is nearly flat along a great circle.  A
        # compass started at the grid point stopped 2e-7 high on the first and
        # crawled for tens of thousands of calls on the second.
        rho = evolve(
            bell_diagonal_state(*triple), LocalHamiltonian.from_bloch([1.0, 0.0, 0.0]), tilt / 2
        )
        worst = np.linalg.eigh(qfi_quadratic_form(rho))[1][:, 0]
        assert math.acos(abs(worst[2])) == pytest.approx(polar, rel=1e-6)
        made, calls = correlations._pauli_landscape, []

        def recording(state, weights):
            exact = made(state, weights)

            def landscape(ns):
                calls.append(len(ns))
                return exact(ns)

            landscape.screen = exact.screen
            return landscape

        monkeypatch.setattr(correlations, "_pauli_landscape", recording)
        for search, closed in (
            (ip_grid_search, interferometric_power),
            (skew_grid_search, local_quantum_uncertainty),
        ):
            calls.clear()
            value, _ = search(rho)
            assert abs(value - closed(rho)) <= 1e-12
            assert 0 < len(calls) <= 16

    @pytest.mark.parametrize("d_b", [1, 2, 3, 4])
    def test_compass_search_equals_the_reference_loop(self, d_b):
        # The screened grid stage gives the bits of the full scan; at d_B = 2 the
        # near ties, where a rounding-blind screen picks the wrong block, too.
        rng = np.random.default_rng(160 + d_b)
        states = screen_states(d_b, rng) + (near_tie_states(6, rng) if d_b == 2 else [])
        grids = ((64, 128), (64, 129), (181, 360), (256, 512), correlations.SEARCH_GRID)
        for rho, weights, grid in product(
            states, (correlations._qfi_weights, correlations._skew_weights), grids
        ):
            landscape = correlations._pauli_landscape(rho, weights)
            value, direction = correlations._sphere_minimum(landscape, grid)
            ref_value, ref_direction = reference_sphere_minimum(landscape, grid)
            assert value == ref_value and direction.tobytes() == ref_direction.tobytes()

    def test_a_screen_without_slack_misses_near_ties(self):
        # The same searches with delta = 0 land in another block of tied rows.
        misses = 0
        for rho, weights in product(
            near_tie_states(6, np.random.default_rng(162)),
            (correlations._qfi_weights, correlations._skew_weights),
        ):
            exact = correlations._pauli_landscape(rho, weights)

            def planted(ns, exact=exact):
                return exact(ns)

            planted.screen = exact.screen[0], 0.0, exact.screen[2]
            for grid in ((256, 512), correlations.SEARCH_GRID):
                found = correlations._sphere_minimum(planted, grid)
                ref_value, ref_direction = reference_sphere_minimum(exact, grid)
                misses += found[0] != ref_value or found[1].tobytes() != ref_direction.tobytes()
        assert misses > 0

    @pytest.mark.parametrize("d_b", [2, 3, 4])
    def test_screen_scores_a_few_rows_unless_the_form_is_flat(self, d_b):
        # A random state's whole search passes a few dozen rows to the landscape;
        # the maximally mixed state's forms are flat, so its grid stage scores
        # each row of the 256x256 half-grid once, in order.
        rho = random_density_matrix((2, d_b), np.random.default_rng(40 + d_b))
        mixed = DensityMatrix.from_matrix(np.eye(2 * d_b) / (2 * d_b), (2, d_b))
        for weights in (correlations._qfi_weights, correlations._skew_weights):
            probe = recording(correlations._pauli_landscape(rho, weights))
            correlations._sphere_minimum(probe, (256, 512))
            assert sum(map(len, probe.calls)) <= 64
            probe = recording(correlations._pauli_landscape(mixed, weights))
            correlations._sphere_minimum(probe, (256, 512))
            grid = split_calls(probe.calls)[0]
            assert np.array_equal(np.concatenate(grid), half_grid_rows((256, 512)))

    def test_the_oracle_reads_none_of_the_closed_forms_code(self, monkeypatch):
        # A relative 1e-9 change in the 3x3 forms moves the closed form and fails
        # the oracle family, while the oracle's bits stay as they were and the
        # oracle never calls the planted form.
        states = [random_density_matrix((2, 2), np.random.default_rng(seed)) for seed in range(3)]
        before = [ip_grid_search(rho, 256, 512) for rho in states]
        assert verify.check_oracle_equivalence(np.random.default_rng(0), 3, 1e-10).passed
        form, calls = correlations._quadratic_form, []

        def planted(rho, weights):
            calls.append(rho)
            return form(rho, weights) * (1 + 1e-9)

        monkeypatch.setattr(correlations, "_quadratic_form", planted)
        assert not verify.check_oracle_equivalence(np.random.default_rng(0), 3, 1e-10).passed
        calls.clear()
        for rho, (value, direction) in zip(states, before):
            again = ip_grid_search(rho, 256, 512)
            assert again[0] == value and again[1].tobytes() == direction.tobytes()
        assert not calls

    def test_rejects_a_half_grid_above_the_cap(self, monkeypatch):
        # 1024x2048 has 2^20 half-grid points, the cap; the search is stubbed,
        # so neither size is allocated.
        monkeypatch.setattr(correlations, "_sphere_minimum", lambda landscape, grid: grid)
        assert ip_grid_search(MIXED, 1024, 2048) == (1024, 2048)
        for grid in ((1024, 2049), (100_000, 100_000)):
            with pytest.raises(ValueError, match="at most"):
                ip_grid_search(MIXED, *grid)

    def test_compass_search_equals_the_reference_loop_on_the_planted_landscape(self):
        landscape = planted_quadratic()
        value, direction = correlations._sphere_minimum(landscape, (64, 128))
        ref_value, ref_direction = reference_sphere_minimum(landscape, (64, 128))
        assert value == ref_value and direction.tobytes() == ref_direction.tobytes()

    @pytest.mark.parametrize("grid", [(64, 128), (64, 129), (256, 512)])
    def test_stencil_calls_pass_the_reference_rows(self, grid):
        # Each stencil call passes nine rows, row k bitwise _bloch(x + STENCIL[k]
        # * step) as the reference loop builds it.
        rho = random_density_matrix((2, 3), np.random.default_rng(7))
        exact = correlations._pauli_landscape(rho, correlations._qfi_weights)
        calls = []
        for search in (correlations._sphere_minimum, reference_sphere_minimum):
            probe = recording(exact)
            search(probe, grid)
            calls.append(split_calls(probe.calls)[2])
        new, old = calls
        assert len(new) == len(old) > 0
        assert all(a.tobytes() == b.tobytes() for a, b in zip(new, old))

    def test_compass_search_stops_when_the_centre_reads_high(self):
        # The stencil's centre (row 4) reads 1e-12 high, as a batched product
        # can round it; a search that compares with a fresh centre value
        # keeps moving forever, and the planted landscape raises instead.
        rho = random_density_matrix((2, 2), np.random.default_rng(1))
        exact = correlations._pauli_landscape(rho, correlations._qfi_weights)
        probe = recording(exact)
        correlations._sphere_minimum(probe, (64, 128))
        grid_calls, calls = len(split_calls(probe.calls)[0]), 0

        def planted(ns):
            nonlocal calls
            calls += 1
            if calls > 10_000:
                raise RuntimeError("the compass search did not stop")
            values = exact(ns)
            if calls > grid_calls + 1:  # a stencil call: the grid stage and the start come first
                values[4] += 1e-12
            return values

        planted.screen = exact.screen
        value, _ = correlations._sphere_minimum(planted, (64, 128))
        assert value == pytest.approx(interferometric_power(rho), abs=1e-12)

    @pytest.mark.parametrize("d_b", [2, 3, 4])
    def test_pauli_landscapes_are_bitwise_even(self, d_b):
        rng = np.random.default_rng(150 + d_b)
        rho = random_density_matrix((2, d_b), rng, env_dim=int(rng.integers(1, 2 * d_b + 1)))
        ns = rng.standard_normal((200, 3))
        ns /= np.linalg.norm(ns, axis=1, keepdims=True)
        for weights in (correlations._qfi_weights, correlations._skew_weights):
            landscape = correlations._pauli_landscape(rho, weights)
            assert np.array_equal(landscape(ns), landscape(-ns))

    @pytest.mark.parametrize("grid", [(64, 128), (64, 129), (181, 360), (3, 5000), (7, 5)])
    def test_grid_stage_scores_the_half_grid(self, grid):
        # Under a screen that keeps every row, the grid stage scores each row of
        # the half-grid once, in order, bitwise _bloch of the meshgrid's angles:
        # 181x360 scores in calls that straddle theta rows, 3x5000 in calls inside one.
        rho = random_density_matrix((2, 3), np.random.default_rng(5))
        exact = correlations._pauli_landscape(rho, correlations._qfi_weights)
        probe = scoring_every_block(recording(exact))
        correlations._sphere_minimum(probe, grid)
        scored = split_calls(probe.calls)[0]
        assert np.array_equal(np.concatenate(scored), half_grid_rows(grid))

    def test_planted_minimum_beyond_phi_pi_is_found(self):
        # The half-grid holds only the antipode of the planted minimum's n*.
        n_star = correlations._bloch(1.1, 4.0)
        value, direction = correlations._sphere_minimum(planted_quadratic(), (64, 128))
        assert abs(value - 0.3) <= 1e-12
        assert min(np.linalg.norm(direction - n_star), np.linalg.norm(direction + n_star)) < 1e-6

    def test_peak_traced_memory(self):
        # Traced allocation is deterministic, unlike the resident set size.  The
        # searches build only the rows they score, at most one block of them at a
        # time, so the 2^20-point half-grid of the cap (1024x2048) takes about what
        # the 256x512 one takes; the screen holds one band of rows at a time, so a
        # landscape that ties everywhere, keeping every row, stays under the same
        # bound.
        rho = random_density_matrix((2, 4), np.random.default_rng(3))
        mixed = DensityMatrix.from_matrix(np.eye(8) / 8, (2, 4))
        searches = (
            (lambda: ip_grid_search(rho, 256, 512), 2 * 1024),
            (lambda: ip_grid_search(rho, 1024, 2048), 2 * 1024),
            (lambda: ip_grid_search(mixed, 1024, 2048), 2 * 1024),
            (lambda: skew_grid_search(rho), 2 * 1024),
            (lambda: min_local_variance(rho), 64),
        )
        for search, kib in searches:
            tracemalloc.start()
            try:
                search()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < kib * 2**10, f"peak {peak / 2**10:.1f} KiB"

    @pytest.mark.parametrize("d_b", [1, 2, 3, 4])
    @pytest.mark.parametrize("grid", [(256, 512), (181, 360), (3, 5000), (7, 5), (1, 1)])
    def test_blocked_grid_matches_one_shot(self, d_b, grid):
        # The landscape is the literal sum at every direction of the meshgrid, as
        # one call over the whole grid reads it, whatever the grid's shape.
        rho = random_density_matrix((2, d_b), np.random.default_rng(20 + d_b))
        tt, pp = np.meshgrid(
            np.linspace(0.0, np.pi, grid[0]),
            np.arange(grid[1]) * (2.0 * np.pi / grid[1]),
            indexing="ij",
        )
        landscape = correlations._pauli_landscape(rho, correlations._qfi_weights)
        one_shot = landscape(correlations._bloch(tt, pp).reshape(-1, 3)).reshape(grid)
        thetas, phis, values = qfi_sphere_grid(rho, *grid)
        assert np.array_equal(values, 4.0 * one_shot)
        assert np.array_equal(thetas, tt[:, 0]) and np.array_equal(phis, pp[0])

    def test_returned_angles_are_fresh(self):
        rho = random_density_matrix((2, 2), np.random.default_rng(4))
        thetas, phis, grid = qfi_sphere_grid(rho, 64, 64)
        thetas[:] = 0.0
        phis[:] = 0.0
        again_thetas, again_phis, again = qfi_sphere_grid(rho, 64, 64)
        assert np.array_equal(again, grid)
        assert again_thetas[-1] == math.pi and again_phis[1] == 2.0 * math.pi / 64

    def test_cached_angles_do_not_leak_between_calls(self):
        # The searches share one read-only set of angles per grid shape, and
        # qfi_sphere_grid hands out copies of them.
        rho = random_density_matrix((2, 2), np.random.default_rng(8))
        other = random_density_matrix((2, 3), np.random.default_rng(9))
        value, direction = ip_grid_search(rho, 256, 512)
        thetas, phis, _ = qfi_sphere_grid(rho, 256, 512)
        thetas[:] = 0.0
        phis[:] = 0.0
        ip_grid_search(other, 181, 360)
        skew_grid_search(other)
        again = ip_grid_search(rho, 256, 512)
        assert again[0] == value and again[1].tobytes() == direction.tobytes()
        thetas, phis, trig = correlations._grid_angles(256, 512)
        for array in (thetas, phis, *trig):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


class TestBellDiagonal:
    def test_origin_is_zero(self):
        assert ip_bell_diagonal(0.0, 0.0, 0.0) == pytest.approx(0.0)

    def test_werner_triple(self):
        for f in (0.1, 0.5, 0.9):
            assert ip_bell_diagonal(f, -f, f) == pytest.approx(
                2 * f**2 / (1 + f), abs=1e-12
            )

    def test_cross_check_against_spectral_route(self):
        from ipower.probes import bell_diagonal_state

        triple = (0.5, 0.3, 0.1)
        direct = ip_bell_diagonal(*triple)
        spectral = interferometric_power(bell_diagonal_state(*triple))
        assert direct == pytest.approx(spectral, abs=1e-10)

    def test_degenerate_denominator_falls_back(self):
        # (1, -1, 1) is the pure Bell state: the closed denominator vanishes.
        assert ip_bell_diagonal(1.0, -1.0, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_invalid_triple_rejected(self):
        with pytest.raises(InvalidCorrelationTripleError):
            ip_bell_diagonal(1.0, 1.0, 1.0)
        for triple in ((math.nan, 0.1, 0.2), (0.1, math.inf, 0.2), (0.1, 0.2, -math.inf)):
            with pytest.raises(InvalidCorrelationTripleError):
                ip_bell_diagonal(*triple)


class TestSkewInformation:
    def test_pure_state_saturates_qfi_quarter(self):
        # Square roots of the near-zero eigenvalues of a numerically pure
        # state carry ~1e-8 noise, so saturation holds at the pure-state
        # tolerance rather than machine precision.
        rng = np.random.default_rng(16)
        for _ in range(10):
            rho = random_pure_density_matrix((2, 2), rng)
            n = rng.standard_normal(3)
            ham = LocalHamiltonian.from_bloch(n / np.linalg.norm(n))
            assert skew_information(rho, ham) == pytest.approx(
                qfi(rho, ham) / 4.0, abs=1e-6
            )

    def test_commuting_state_gives_zero(self):
        rho = DensityMatrix.from_matrix(np.diag([0.4, 0.3, 0.2, 0.1]), (2, 2))
        assert skew_information(rho, LocalHamiltonian.from_matrix(SIGMA_Z)) <= 1e-14

    def test_discordant_probe_value_bounded(self):
        rho = discordant_probe(0.5)
        ham = LocalHamiltonian.from_matrix(SIGMA_X)
        value = skew_information(rho, ham)
        assert 0.0 < value <= 0.25 + 1e-12
        assert qfi(rho, ham) / 4.0 == pytest.approx(0.25)

    def test_bounded_by_qfi_quarter(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            rho = random_density_matrix((2, 2), rng, env_dim=int(rng.integers(1, 5)))
            n = rng.standard_normal(3)
            ham = LocalHamiltonian.from_bloch(n / np.linalg.norm(n))
            assert skew_information(rho, ham) <= qfi(rho, ham) / 4.0 + 1e-9


class TestLocalQuantumUncertainty:
    def test_classical_probe_vanishes(self):
        for p in (0.2, 0.7, 1.0):
            assert local_quantum_uncertainty(classical_probe(p)) <= 1e-10

    def test_bell_state_reaches_one(self):
        rho = bell_probe()
        assert local_quantum_uncertainty(rho) == pytest.approx(1.0, abs=1e-10)
        grid_value, _ = skew_grid_search(rho)
        assert grid_value == pytest.approx(1.0, abs=1e-8)

    def test_bounded_by_interferometric_power(self):
        for p in (0.2, 0.5, 0.9):
            rho = discordant_probe(p)
            assert local_quantum_uncertainty(rho) <= (
                interferometric_power(rho) + 1e-10
            )

    @pytest.mark.parametrize("d_b, seed", [(2, 18), (3, 121), (4, 122)])
    def test_matches_dense_grid_search(self, d_b, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            rho = random_density_matrix(
                (2, d_b), rng, env_dim=int(rng.integers(1, 2 * d_b + 1))
            )
            closed = local_quantum_uncertainty(rho)
            grid_value, _ = skew_grid_search(rho)
            assert grid_value == pytest.approx(closed, abs=1e-6)
            assert grid_value >= closed - 1e-12

    @pytest.mark.parametrize("d_b, seed", [(2, 19), (3, 122), (4, 123)])
    def test_hierarchy_on_random_states(self, d_b, seed):
        result = check_hierarchy(np.random.default_rng(seed), 50, 1e-10, d_b)
        assert result.passed, result.line()

    @pytest.mark.parametrize("d_b", [2, 3, 4])
    def test_matches_square_root_reference(self, d_b):
        # LQU = 1 - lambda_max(W), W_mn = Tr[sqrt(rho) s_m sqrt(rho) s_n] with
        # s_m = sigma_m x I and sqrt(rho) from its own eigendecomposition.
        # On rank-deficient states the square roots of eigenvalue dust
        # (~1e-17) enter at ~1e-8, hence the looser bound there.
        rng = np.random.default_rng(130 + d_b)
        paulis = [tensor(s, np.eye(d_b)) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
        for env_dim, bound in ((None, 1e-12), (1, 1e-7), (d_b, 1e-7)):
            for _ in range(5):
                rho = random_density_matrix((2, d_b), rng, env_dim=env_dim)
                vals, vecs = np.linalg.eigh(rho.matrix)
                root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ dagger(vecs)
                assert_allclose(root @ root, rho.matrix, atol=1e-12)
                w = np.array(
                    [[np.trace(root @ a @ root @ b).real for b in paulis] for a in paulis]
                )
                reference = 1.0 - np.linalg.eigvalsh(w)[-1]
                assert local_quantum_uncertainty(rho) == pytest.approx(
                    reference, abs=bound
                )


class TestScalingIdentity:
    def test_identity_shift_is_unobservable(self):
        rho = discordant_probe(0.5)
        ham = setting_hamiltonian(1)
        shifted = LocalHamiltonian.from_matrix(ham.matrix + 2.345 * np.eye(2))
        assert qfi(rho, shifted) == pytest.approx(qfi(rho, ham), abs=1e-12)

    def test_quadratic_scaling(self):
        rho = discordant_probe(0.5)
        ham = setting_hamiltonian(1)
        doubled = LocalHamiltonian.from_matrix(2.0 * ham.matrix)
        assert qfi(rho, doubled) == pytest.approx(4.0 * qfi(rho, ham), abs=1e-12)

    def test_zero_scale_kills_information(self):
        rho = discordant_probe(0.5)
        constant = LocalHamiltonian.from_matrix(np.eye(2))
        assert qfi(rho, constant) <= 1e-14


class TestLocalVarianceSearch:
    @pytest.mark.parametrize("d_b, seed", [(2, 20), (3, 123), (4, 124)])
    def test_pure_state_reduction(self, d_b, seed):
        result = check_pure_state_reduction(np.random.default_rng(seed), 10, 1e-6, d_b)
        assert result.passed, result.line()

    def test_requires_qubit_a(self):
        rho = DensityMatrix.from_matrix(np.eye(6) / 6.0, (3, 2))
        with pytest.raises(SubsystemANotQubitError):
            min_local_variance(rho)

    @pytest.mark.parametrize("d_b", [1, 2, 3, 4])
    def test_moment_landscape_is_the_literal_variance(self, d_b):
        # The closed form's first moments f = |f| n* rebuild the whole landscape
        # Tr rho - (n . f)^2, which must be the literal variance in every direction.
        rng = np.random.default_rng(140 + d_b)
        rho = random_density_matrix((2, d_b), rng, env_dim=int(rng.integers(1, 2 * d_b + 1)))
        value, direction = min_local_variance(rho)
        trace = float(np.trace(rho.matrix).real)
        f = np.sqrt(trace - value) * direction

        def landscape(ns):
            return trace - (ns @ f) ** 2

        ns = rng.standard_normal((50, 3))
        ns /= np.linalg.norm(ns, axis=1, keepdims=True)
        literal = [variance_oracle(rho, LocalHamiltonian.from_bloch(n)) / 4.0 for n in ns]
        assert_allclose(landscape(ns), literal, rtol=0.0, atol=1e-14)
        assert np.array_equal(landscape(ns), landscape(-ns))

    @pytest.mark.parametrize("case", [1, 2, 3, 4, "bell", "mixed"])
    def test_closed_form_is_the_minimum_of_the_literal_variance(self, case):
        # Random states at d_B = 1-4 of random rank; the Bell probe and the
        # maximally mixed state have f = 0, so every direction is a minimiser.
        rng = np.random.default_rng(140)
        if case == "bell":
            rho = bell_probe()
        elif case == "mixed":
            rho = DensityMatrix.from_matrix(np.eye(6) / 6.0, (2, 3))
        else:
            rho = random_density_matrix((2, case), rng, env_dim=int(rng.integers(1, 2 * case + 1)))
        value, direction = min_local_variance(rho)
        assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-15)
        literal = variance_oracle(rho, LocalHamiltonian.from_bloch(direction)) / 4.0
        assert value == pytest.approx(literal, abs=1e-14)

        ns = rng.standard_normal((500, 3))
        ns /= np.linalg.norm(ns, axis=1, keepdims=True)
        tt, pp = np.meshgrid(
            np.linspace(0.0, np.pi, 64), np.arange(128) * (np.pi / 64), indexing="ij"
        )
        ns = np.concatenate((ns, correlations._bloch(tt, pp).reshape(-1, 3)))
        # variance_oracle on the whole stack at once, explicit matrices as there.
        paulis = np.array([SIGMA_X, SIGMA_Y, SIGMA_Z])
        h = np.kron(np.einsum("gm,mab->gab", ns, paulis), np.eye(rho.d_b)[None])
        first = np.trace(rho.matrix @ h, axis1=1, axis2=2).real
        brute = np.trace(rho.matrix @ h @ h, axis1=1, axis2=2).real - first**2
        explicit = [variance_oracle(rho, LocalHamiltonian.from_bloch(n)) / 4.0 for n in ns[:500]]
        assert_allclose(brute[:500], explicit, rtol=0.0, atol=1e-14)
        assert value <= brute.min() + 1e-14

    def test_reaches_no_sphere_search(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the closed form reached a sphere search")

        monkeypatch.setattr(correlations, "_sphere_minimum", refuse)
        monkeypatch.setattr(correlations, "_pauli_landscape", refuse)
        rho = random_density_matrix((2, 3), np.random.default_rng(7))
        value, direction = min_local_variance(rho)
        literal = variance_oracle(rho, LocalHamiltonian.from_bloch(direction)) / 4.0
        assert value == pytest.approx(literal, abs=1e-14)


def _bits(value):
    """Raw bytes of a measure's result: a float, an array, an SLD or a (value, direction)."""
    if isinstance(value, correlations.SldDecomposition):
        return value.eigenvalues.tobytes() + value.eigenbasis.tobytes()
    if isinstance(value, tuple):
        return b"".join(_bits(part) for part in value)
    return np.asarray(value, dtype=float if np.isrealobj(value) else complex).tobytes()


def _fresh(rho):
    """The same eigenpairs in a new state, without pair data."""
    return DensityMatrix(rho.matrix, rho.dims, rho.eigenvalues, rho.eigenvectors)


class TestPairData:
    """Each state computes its pair data once; results never depend on which
    formula filled it, and a derived state never inherits it."""

    @staticmethod
    def formulas(rng):
        ham = LocalHamiltonian.from_bloch(correlations._bloch(*rng.uniform(0.0, 3.0, 2)))
        phase = float(rng.uniform(0.0, np.pi))
        return {
            "ip": interferometric_power,
            "lqu": local_quantum_uncertainty,
            "form": qfi_quadratic_form,
            "qfi": lambda rho: qfi(rho, ham),
            "skew": lambda rho: skew_information(rho, ham),
            "sld": lambda rho: sld(rho, ham, phase),
            "ip_grid": lambda rho: ip_grid_search(rho, 64, 64),
            "skew_grid": skew_grid_search,
        }

    @pytest.mark.parametrize("d_b, rank", [(2, 4), (3, 2), (4, 1)])
    def test_every_result_is_a_fresh_states_whichever_formula_came_first(self, d_b, rank):
        rng = np.random.default_rng(300 + d_b)
        rho = random_density_matrix((2, d_b), rng, env_dim=rank)
        formulas = self.formulas(rng)
        fresh = {name: _bits(f(_fresh(rho))) for name, f in formulas.items()}
        for first, fill in formulas.items():
            state = _fresh(rho)
            fill(state)
            for name, f in formulas.items():
                assert _bits(f(state)) == fresh[name], (first, name)

    def test_ip_lqu_and_form_compute_the_pauli_pairs_once(self, monkeypatch):
        calls = []
        elements = correlations._elements
        monkeypatch.setattr(
            correlations, "_elements", lambda *args: calls.append(1) or elements(*args)
        )
        rho = random_density_matrix((2, 3), np.random.default_rng(310))
        interferometric_power(rho)
        local_quantum_uncertainty(rho)
        qfi_quadratic_form(rho)
        assert len(calls) == 1
        stack = stacked([rho, _fresh(rho)])
        interferometric_power(stack)
        local_quantum_uncertainty(stack)
        assert len(calls) == 2
        assert not correlations._pauli_pairs(rho).flags.writeable
        assert not correlations._pair_weights(rho, correlations._qfi_weights).flags.writeable


def _derived_state(name, remix=remix_degenerate_eigenspaces):
    """(source with its pair data filled, the state that constructor ``name`` makes
    from it)."""
    rng = np.random.default_rng(320)
    rho = random_density_matrix((2, 4), rng, env_dim=2)  # six zero eigenvalues: one cluster
    source = stacked([rho, random_density_matrix((2, 4), rng)]) if name == "index" else rho
    interferometric_power(source)
    local_quantum_uncertainty(source)
    make = {
        "index": lambda: source[1],
        "evolve": lambda: evolve(rho, LocalHamiltonian.from_bloch([0.0, 0.6, 0.8]), 0.4),
        "remix": lambda: remix(rho, rng),
        "channel": lambda: apply_channel_b(rho, random_isometry_kraus(4, rng)),
    }[name]
    return source, make()


def _pair_arrays(rho):
    return [a for v in rho._pair_data.values() for a in (v if isinstance(v, tuple) else (v,))]


def assert_computes_its_own_pair_data(source, derived):
    """``derived`` starts without pair data, the Pauli pair matrix and weights it
    reads are bitwise those of a fresh state with its eigenpairs, and none of its
    pair data is memory of ``source``."""
    started_empty = not derived._pair_data
    fresh = _fresh(derived)
    e = correlations._pauli_pairs(derived)
    assert e.tobytes() == correlations._pair_elements(fresh, correlations._PAULI_STACK).tobytes(), (
        "the Pauli pair matrix is not the state's own"
    )
    for weights in (correlations._qfi_weights, correlations._skew_weights):
        assert correlations._pair_weights(derived, weights).tobytes() == (
            correlations._pair_weights(fresh, weights).tobytes()
        )
    for a, b in product(_pair_arrays(derived), _pair_arrays(source)):
        assert not np.shares_memory(a, b)
    assert started_empty


@pytest.mark.parametrize("name", ["index", "evolve", "remix", "channel"])
def test_a_derived_state_carries_none_of_its_sources_pair_data(name):
    source, derived = _derived_state(name)
    assert _pair_arrays(source)
    assert_computes_its_own_pair_data(source, derived)


def test_a_remix_that_copies_its_sources_pauli_pairs_fails_the_check():
    def leaky_remix(rho, rng):
        out = remix_degenerate_eigenspaces(rho, rng)
        out._pair_data["pauli"] = rho._pair_data["pauli"]  # the planted fault
        return out

    source, derived = _derived_state("remix", leaky_remix)
    with pytest.raises(AssertionError, match="Pauli pair matrix is not the state's own"):
        assert_computes_its_own_pair_data(source, derived)
