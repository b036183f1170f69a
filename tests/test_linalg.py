import ast
import io
import tokenize
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ipower
from ipower.errors import DimensionMismatchError, NonHermitianError
from ipower.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    dagger,
    apply_local,
    eig_hermitian,
    hermitian_part,
    tensor,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def overlap(u, v):
    """Modulus of the inner product; 1 means equal up to a global phase."""
    return abs(np.vdot(u, v))


class TestEigHermitian:
    def test_identity(self):
        vals, vecs = eig_hermitian(np.eye(2))
        assert_allclose(vals, [1.0, 1.0])
        assert_allclose(dagger(vecs) @ vecs, np.eye(2), atol=1e-14)

    def test_sigma_z(self):
        vals, vecs = eig_hermitian(SIGMA_Z)
        assert_allclose(vals, [-1.0, 1.0])
        assert overlap(vecs[:, 0], [0, 1]) == pytest.approx(1.0)
        assert overlap(vecs[:, 1], [1, 0]) == pytest.approx(1.0)

    def test_sigma_x(self):
        # Hand diagonalization: eigenpairs (-1, (|0>-|1>)/sqrt2), (+1, (|0>+|1>)/sqrt2).
        vals, vecs = eig_hermitian(SIGMA_X)
        assert_allclose(vals, [-1.0, 1.0])
        assert overlap(vecs[:, 0], [INV_SQRT2, -INV_SQRT2]) == pytest.approx(1.0)
        assert overlap(vecs[:, 1], [INV_SQRT2, INV_SQRT2]) == pytest.approx(1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_deterministic_on_degenerate_input(self):
        m = tensor(SIGMA_Z, np.eye(2))  # doubly degenerate spectrum
        vals1, vecs1 = eig_hermitian(m)
        vals2, vecs2 = eig_hermitian(m.copy())
        assert_allclose(vals1, vals2)
        assert_allclose(vecs1, vecs2)


class TestTensor:
    def test_sigma_z_with_identity(self):
        assert_allclose(tensor(SIGMA_Z, np.eye(2)), np.diag([1, 1, -1, -1]))

    def test_identity_with_identity(self):
        assert_allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_x_with_sigma_x(self):
        # Direct 4x4 expansion by the Kronecker rule: anti-diagonal ones.
        expected = np.zeros((4, 4))
        expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1.0
        assert_allclose(tensor(SIGMA_X, SIGMA_X), expected)

    def test_entry_rule(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        out = tensor(a, b)
        for i in range(3):
            for j in range(3):
                for k in range(2):
                    for l in range(2):
                        assert out[2 * i + k, 2 * j + l] == pytest.approx(
                            a[i, j] * b[k, l], abs=1e-15
                        )


def test_hermitian_part():
    assert_allclose(hermitian_part(SIGMA_Y), SIGMA_Y, rtol=0, atol=0)
    with pytest.raises(NonHermitianError, match="deviation 1.000e-08"):
        hermitian_part(SIGMA_Y + 1e-8 * np.array([[0, 1], [0, 0]]))


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("d_b", [1, 2, 3, 4])
def test_apply_local_matches_tensor(d_b, side):
    rng = np.random.default_rng(40 + d_b)
    size = 2 if side == "A" else d_b
    ops = rng.standard_normal((3, size, size)) + 1j * rng.standard_normal((3, size, size))
    m = rng.standard_normal((2 * d_b, 5)) + 1j * rng.standard_normal((2 * d_b, 5))

    def full(op):
        return tensor(op, np.eye(d_b)) if side == "A" else tensor(np.eye(2), op)

    expected = np.stack([full(op) @ m for op in ops])
    dims = (2, d_b)
    assert_allclose(apply_local(ops[0], m, dims, side), expected[0], rtol=0, atol=1e-14)
    assert_allclose(apply_local(ops, m, dims, side), expected, rtol=0, atol=1e-14)
    # Stacks broadcast: operator j acts on matrix j.
    paired = apply_local(ops, np.stack([m, 2 * m, 3 * m]), dims, side)
    assert_allclose(paired, expected * [[[1]], [[2]], [[3]]], rtol=0, atol=1e-14)


def test_apply_local_rejects_wrong_factor_dimension():
    with pytest.raises(DimensionMismatchError):
        apply_local(np.eye(3), np.eye(4), (2, 2), "B")


def small_literals(path: Path) -> list[str]:
    """``file:line literal`` of every number literal v in ``path`` with
    0 < |v| < 1e-5: the size of a tolerance or cutoff."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return [
        f"{path.name}:{token.start[0]} {token.string}"
        for token in tokens
        if token.type == tokenize.NUMBER and 0 < abs(ast.literal_eval(token.string)) < 1e-5
    ]


def test_every_cutoff_lives_in_the_linalg_table():
    """No module of ``ipower`` but ``linalg`` holds a cutoff-sized literal, so a
    cutoff is changed in ``linalg``'s constants block and nowhere else.

    ``verify`` is exempt: its bounds are the tolerances of the property checks,
    one per family in ``ALL_CHECKS`` and inside the checks, which state what each
    check accepts rather than how the library rounds.
    """
    package = Path(ipower.__file__).parent
    found = [
        hit
        for path in sorted(package.glob("*.py"))
        if path.name not in ("linalg.py", "verify.py")
        for hit in small_literals(path)
    ]
    assert found == []
