"""Seeded benchmark inputs, built with plain numpy.

Nothing here imports ``ipower``: the work a job measures is fixed by the seed
and this file alone, so a change to the library (``ipower.sampling`` in
particular) cannot change what is being measured.  Every stream is a
``numpy.random.Generator`` keyed by ``[seed, stream, job]``.
"""

from __future__ import annotations

import math

import numpy as np

# Stream identifiers, so the workloads never share random draws.
_STREAM_ENSEMBLE = 1
_STREAM_ORACLE = 2
_STREAM_ADAPTIVE = 20

# d_B cycles through these dimensions, item by item.
B_DIMS = (2, 3, 4)

ENSEMBLE_STATES_PER_JOB = 150
ORACLE_STATES_PER_JOB = 3
ADAPTIVE_CASES = 20
ADAPTIVE_MIN_QFI = 0.1


def analytic_qfi(label: str, p: float, k: int) -> float:
    """QFI of the Q/C probe families under setting k (paper, Fig. 3)."""
    p2 = p * p
    if k == 1:
        return 8.0 * p2 / (1.0 + p2)
    if label == "Q":
        return 4.0 * p2
    return 4.0 * p2 / (1.0 + p2) if k == 2 else 0.0


def random_state(rng: np.random.Generator, d_b: int) -> np.ndarray:
    """Density matrix on C^2 x C^d_B of rank r, r uniform in 1..2 d_B.

    rho = G G^dagger / Tr, with G a (2 d_B, r) complex Ginibre matrix.
    """
    d = 2 * d_b
    rank = int(rng.integers(1, d + 1))
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_kraus(rng: np.random.Generator, d_b: int) -> list[np.ndarray]:
    """Kraus operators K_j = (I x <j|) V of a random isometry V: C^d_B -> C^d_B x C^m.

    m is uniform in 1..3; V is the Q factor of a complex Ginibre matrix, so
    sum_j K_j^dagger K_j = I to rounding.
    """
    m = int(rng.integers(1, 4))
    z = rng.standard_normal((d_b * m, d_b)) + 1j * rng.standard_normal((d_b * m, d_b))
    v, _ = np.linalg.qr(z)
    return [v[j * d_b:(j + 1) * d_b] for j in range(m)]


def ensemble_job(seed: int, job: int) -> list[dict]:
    """One ensemble job: a state, a Bloch generator, a phase and a B-side channel per item."""
    rng = np.random.default_rng([seed, _STREAM_ENSEMBLE, job])
    items = []
    for i in range(ENSEMBLE_STATES_PER_JOB):
        d_b = B_DIMS[i % len(B_DIMS)]
        items.append(
            {
                "d_b": d_b,
                "matrix": random_state(rng, d_b),
                "bloch": unit_vector(rng),
                "phase": float(rng.uniform(0.0, 2.0 * math.pi)),
                "kraus": random_kraus(rng, d_b),
            }
        )
    return items


def oracle_job(seed: int, job: int) -> list[dict]:
    """One oracle job: one state per d_B, so every job has the same dimension mix."""
    rng = np.random.default_rng([seed, _STREAM_ORACLE, job])
    items = []
    for i in range(ORACLE_STATES_PER_JOB):
        d_b = B_DIMS[i % len(B_DIMS)]
        items.append({"d_b": d_b, "matrix": random_state(rng, d_b)})
    return items


def adaptive_cases(seed: int) -> list[tuple[str, float, int]]:
    """(label, p, setting) cases drawn like the adaptive property check draws them.

    Label Q or C with equal odds, p uniform in [0.05, 1), setting uniform in
    1..3, keeping cases whose analytic QFI exceeds 0.1.
    """
    rng = np.random.default_rng([seed, _STREAM_ADAPTIVE])
    cases = []
    while len(cases) < ADAPTIVE_CASES:
        label = "Q" if rng.uniform() < 0.5 else "C"
        p = float(rng.uniform(0.05, 1.0))
        k = int(rng.integers(1, 4))
        if analytic_qfi(label, p, k) > ADAPTIVE_MIN_QFI:
            cases.append((label, p, k))
    return cases
