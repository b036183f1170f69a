"""Seeded random ensembles: Haar unitaries, random states and local channels.

Used by the property-verification suites; everything takes an explicit
``numpy.random.Generator`` so results are reproducible and order-independent.
"""

from __future__ import annotations

import numpy as np

from .linalg import PAULIS, _count, _real, apply_local, dagger, degenerate_clusters, tensor
from .states import DensityMatrix, _dims, _require_single

# Largest dimension of a matrix a sampler draws (256 MiB), and of a state vector its square.
_MAX_DIM = 4096


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R-diagonal phases are divided out so the distribution is exactly
    Haar rather than QR-convention dependent.
    """
    dim = _count(dim, "dim", 1, _MAX_DIM)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    phases = np.diag(r)
    return q * (phases / np.abs(phases)).conj()


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector."""
    dim = _count(dim, "dim", 1, _MAX_DIM**2)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density_matrix(
    dims: tuple[int, int], rng: np.random.Generator, env_dim: int | None = None
) -> DensityMatrix:
    """Random mixed state: partial trace of a Haar pure state over an environment.

    ``env_dim`` controls the rank (1 gives a pure state); by default the
    environment matches the system dimension, which generically yields a
    full-rank state.
    """
    return DensityMatrix.from_matrix(_random_density_array(dims, rng, env_dim), dims)


def _random_density_array(dims, rng: np.random.Generator, env_dim: int | None = None):
    """The raw (d, d) matrix of :func:`random_density_matrix`, from the same draws,
    for a caller that validates many at once."""
    d = np.prod(_dims(dims, most=_MAX_DIM))
    env = d if env_dim is None else _count(env_dim, "env_dim", 1, _MAX_DIM**2 // d)
    psi = random_pure_state(d * env, rng).reshape(d, env)
    return psi @ dagger(psi)


def random_pure_density_matrix(
    dims: tuple[int, int], rng: np.random.Generator
) -> DensityMatrix:
    psi = random_pure_state(np.prod(_dims(dims, most=_MAX_DIM)), rng)
    return DensityMatrix.from_matrix(np.outer(psi, psi.conj()), dims)


def random_probability_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    n = _count(n, "n", 1)
    w = rng.dirichlet(np.ones(n))
    return w / w.sum()


def random_classical_quantum_state(
    dims: tuple[int, int], rng: np.random.Generator
) -> DensityMatrix:
    """State diagonal in a random local basis on A: sum_j s_j |j><j| x chi_j."""
    d_a, d_b = _dims(dims, most=_MAX_DIM)
    u_a = haar_unitary(d_a, rng)
    weights = random_probability_vector(d_a, rng)
    blocks = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for j in range(d_a):
        ket = u_a[:, j]
        chi = random_density_matrix((d_b, 1), rng).matrix
        blocks += weights[j] * tensor(np.outer(ket, ket.conj()), chi)
    return DensityMatrix.from_matrix(blocks, dims)


def random_classical_classical_state(
    dims: tuple[int, int], rng: np.random.Generator
) -> DensityMatrix:
    """State diagonal in a random product basis on A and B."""
    d_a, d_b = _dims(dims, most=_MAX_DIM)
    u_a = haar_unitary(d_a, rng)
    u_b = haar_unitary(d_b, rng)
    blocks = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    weights = random_probability_vector(d_a * d_b, rng).reshape(d_a, d_b)
    for j in range(d_a):
        ket_a = u_a[:, j]
        proj_a = np.outer(ket_a, ket_a.conj())
        for m in range(d_b):
            ket_b = u_b[:, m]
            blocks += weights[j, m] * tensor(proj_a, np.outer(ket_b, ket_b.conj()))
    return DensityMatrix.from_matrix(blocks, dims)


def remix_degenerate_eigenspaces(rho: DensityMatrix, rng: np.random.Generator) -> DensityMatrix:
    """Rotate the eigenvectors inside each degenerate eigenvalue cluster.

    The state is unchanged; only the stored spectral decomposition picks a
    different orthonormal basis for degenerate eigenspaces.  Downstream
    spectral formulas must be invariant under this remixing.  Like
    :func:`ipower.states.evolve`, it reuses the validated matrix and spectrum.
    """
    _require_single(rho)
    vecs = rho.eigenvectors.copy()
    for start, stop in degenerate_clusters(rho.eigenvalues):
        vecs[:, start:stop] = vecs[:, start:stop] @ haar_unitary(stop - start, rng)
    vecs.setflags(write=False)
    return DensityMatrix(rho.matrix, rho.dims, rho.eigenvalues, vecs)


def apply_channel_b(rho: DensityMatrix, kraus: list[np.ndarray]) -> DensityMatrix:
    """Apply a channel with the caller's Kraus operators on B; the output is validated."""
    _require_single(rho)
    ops = np.asarray(kraus, dtype=complex)
    left = apply_local(ops, rho.matrix, rho.dims, "B")  # (I x K) rho
    out = apply_local(ops, dagger(left), rho.dims, "B").sum(axis=0)  # left† = rho (I x K)†
    return DensityMatrix.from_matrix(out, rho.dims)


def depolarizing_kraus(strength: float) -> list[np.ndarray]:
    """Kraus operators of the qubit depolarizing channel of strength in [0, 4/3]."""
    strength = _real(strength, "depolarizing strength", 0.0, 4.0 / 3.0)
    ops = [np.sqrt(1.0 - 3.0 * strength / 4.0) * np.eye(2, dtype=complex)]
    ops += [np.sqrt(strength / 4.0) * s for s in PAULIS]
    return ops


def amplitude_damping_kraus(gamma: float) -> list[np.ndarray]:
    """Kraus operators of the qubit amplitude-damping channel, gamma in [0, 1]."""
    gamma = _real(gamma, "damping gamma", 0.0, 1.0)
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return [k0, k1]


def random_isometry_kraus(dim: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Kraus operators of a random channel on C^dim: the m row blocks
    K_j = (<j| x I) V of a Haar isometry V: C^dim -> C^m x C^dim, m uniform in 1..3."""
    dim = _count(dim, "dim", 1)
    m = int(rng.integers(1, 4))
    v = haar_unitary(dim * m, rng)[:, :dim]
    return [v[j * dim : (j + 1) * dim] for j in range(m)]
