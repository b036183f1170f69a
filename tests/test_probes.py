import numpy as np
import pytest
from numpy.testing import assert_allclose

from ipower.correlations import interferometric_power, ip_bell_diagonal
from ipower.errors import (
    InvalidCorrelationTripleError,
    NotPositiveSemidefiniteError,
    ParameterOutOfRangeError,
)
from ipower.probes import (
    ProbeFamily,
    bell_diagonal_state,
    bell_probe,
    build_probes,
    classical_probe,
    discordant_probe,
    flip_angle_grid,
    make_probe,
    predicted_qfi,
    separable_discordant_state,
    setting_hamiltonian,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestFamilyConstructors:
    def test_discordant_probe_at_zero_is_maximally_mixed(self):
        assert_allclose(discordant_probe(0.0).matrix, np.eye(4) / 4.0, atol=1e-15)

    def test_discordant_probe_at_one_is_bell_state(self):
        expected = np.array(
            [[2, 0, 0, 2], [0, 0, 0, 0], [0, 0, 0, 0], [2, 0, 0, 2]]
        ) / 4.0
        assert_allclose(discordant_probe(1.0).matrix, expected, atol=1e-15)
        assert_allclose(discordant_probe(1.0).matrix, bell_probe().matrix, atol=1e-15)

    def test_classical_probe_at_one_is_plus_plus(self):
        # p = 1 in the classical family gives the all-ones matrix over 4,
        # the projector on |+>|+>.
        assert_allclose(classical_probe(1.0).matrix, np.ones((4, 4)) / 4.0, atol=1e-15)

    def test_purity_matches_between_families(self):
        for p in flip_angle_grid():
            target = (1 + p * p) ** 2 / 4.0
            assert discordant_probe(p).purity() == pytest.approx(target, abs=1e-12)
            assert classical_probe(p).purity() == pytest.approx(target, abs=1e-12)

    def test_bell_diagonal_outside_tetrahedron_rejected(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            make_probe(ProbeFamily("belldiag", (0.9, 0.9, 0.9)))

    def test_make_probe_dispatch(self):
        assert_allclose(
            make_probe(ProbeFamily("Q", (0.5,))).matrix,
            discordant_probe(0.5).matrix,
        )
        assert_allclose(
            make_probe(ProbeFamily("sep")).matrix,
            separable_discordant_state().matrix,
        )
        with pytest.raises(ParameterOutOfRangeError):
            ProbeFamily("nope", ())
        with pytest.raises(ParameterOutOfRangeError):
            make_probe(ProbeFamily("werner", ()))



class TestFamilyKeepsItsBuild:
    # The family keeps its raw matrix, and nothing else: it is a value.
    def test_identity_ignores_the_build(self):
        family = ProbeFamily("C", (0.3,))
        fresh = ProbeFamily("C", (0.3,))
        before = hash(family)
        assert family.matrix is family.matrix  # built once
        assert family == fresh and hash(family) == before == hash(fresh)
        assert family == ProbeFamily(family.label, family.params)
        assert {family: 1}[fresh] == 1

    @pytest.mark.parametrize(
        "family, error",
        [
            (ProbeFamily("Q", (1.5,)), ParameterOutOfRangeError),
            (ProbeFamily("werner", ()), ParameterOutOfRangeError),
            (ProbeFamily("belldiag", (0.9, 0.9, 0.9)), NotPositiveSemidefiniteError),
        ],
    )
    def test_failed_build_raises_on_every_access(self, family, error):
        for _ in range(2):
            with pytest.raises(error):
                family.matrix


def reference_state(family):
    """The family's state built on its own, then checked against the parent's
    per-state from_matrix: eigh of the Hermitian part, clip, renormalize."""
    rho = make_probe(family)
    herm = (family.matrix + family.matrix.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    vals = np.clip(vals, 0.0, None)
    assert [a.tobytes() for a in (herm, vals / vals.sum(), vecs)] == [
        a.tobytes() for a in (rho.matrix, rho.eigenvalues, rho.eigenvectors)
    ]
    return rho


BUILT_FAMILIES = (
    [ProbeFamily(label, (p,)) for label in ("Q", "C") for p in flip_angle_grid()]
    + [ProbeFamily("werner", (f,)) for f in (0.0, 0.4, 1.0)]
    + [ProbeFamily("sep"), ProbeFamily("bell"), ProbeFamily("belldiag", (0.5, -0.3, 0.2))]
)


class TestBuildProbes:
    def test_stack_equals_the_per_state_path(self):
        families = [ProbeFamily(f.label, f.params) for f in BUILT_FAMILIES]
        states, powers = build_probes(families)
        assert states.matrix.shape == (len(families), 4, 4) and len(powers) == len(families)
        assert states.dims == (2, 2)
        for i, family in enumerate(families):
            rho = reference_state(family)
            assert [a.tobytes() for a in (states[i].matrix, states[i].eigenvalues,
                                          states[i].eigenvectors)] == [
                a.tobytes() for a in (rho.matrix, rho.eigenvalues, rho.eigenvectors)
            ]
            assert np.float64(powers[i]).tobytes() == np.float64(
                interferometric_power(rho)
            ).tobytes()
        arrays = (states.matrix, states.eigenvalues, states.eigenvectors)
        assert not any(arr.flags.writeable for arr in arrays)

    def test_outside_the_tetrahedron_keeps_its_message(self):
        # The triple's closed-form spectrum is checked with its parameters, so
        # the message is the family's own; a nan triple is outside as well.
        for triple in ((0.9, 0.9, 0.9), (np.nan, 0.0, 0.0), (np.inf, 0.0, 0.0)):
            family = ProbeFamily("belldiag", triple)
            for build in (lambda: build_probes([family]), lambda: bell_diagonal_state(*triple)):
                with pytest.raises(NotPositiveSemidefiniteError, match="outside the state"):
                    build()

    def test_both_bell_diagonal_entry_points_share_one_rule(self):
        # The state and its closed-form power reject a triple with one error
        # and one message.
        for triple in ((0.9, 0.9, 0.9), (1.0, 1.0, 1.0), (np.nan, 0.0, 0.0)):
            messages = []
            for build in (bell_diagonal_state, ip_bell_diagonal):
                with pytest.raises(InvalidCorrelationTripleError) as raised:
                    build(*triple)
                assert isinstance(raised.value, NotPositiveSemidefiniteError)
                messages.append(str(raised.value))
            assert messages[0] == messages[1]
            assert "lies outside the state tetrahedron" in messages[0]


class TestSettings:
    def test_setting_matrices(self):
        assert_allclose(setting_hamiltonian(1).matrix, [[1, 0], [0, -1]])
        assert_allclose(
            setting_hamiltonian(2).matrix,
            np.array([[0, INV_SQRT2 * (1 - 1j)], [INV_SQRT2 * (1 + 1j), 0]]),
            atol=1e-15,
        )
        assert_allclose(setting_hamiltonian(3).matrix, [[0, 1], [1, 0]])

    def test_spectra_and_bloch_vectors(self):
        expected_bloch = {
            1: [0, 0, 1],
            2: [INV_SQRT2, INV_SQRT2, 0],
            3: [1, 0, 0],
        }
        for k in (1, 2, 3):
            ham = setting_hamiltonian(k)
            assert_allclose(ham.spectrum, [-1, 1], atol=1e-12)
            assert_allclose(ham.bloch_vector, expected_bloch[k], atol=1e-12)


class TestPredictedQfi:
    def test_analytic_values(self):
        assert predicted_qfi("Q", 1.0, 1) == pytest.approx(4.0)
        for p in (0.0, 0.3, 0.9):
            assert predicted_qfi("C", p, 3) == 0.0
        assert predicted_qfi("Q", 0.5, 2) == pytest.approx(1.0)

    def test_bad_inputs(self):
        with pytest.raises(ParameterOutOfRangeError):
            predicted_qfi("werner", 0.5, 1)


class TestFlipAngleGrid:
    def test_default_grid(self):
        grid = flip_angle_grid()
        assert len(grid) == 37
        assert grid[0] == pytest.approx(1.0)
        assert grid[-1] == pytest.approx(0.0, abs=1e-12)
        assert grid[1] == pytest.approx(np.cos(np.deg2rad(2.5)))

    def test_caps_the_point_count(self):
        # 0..49999 by 1 holds the cap's 50000 points; one more point is refused.
        assert len(flip_angle_grid(0.0, 49_999.0, 1.0)) == 50_000
        with pytest.raises(ParameterOutOfRangeError, match="more than 50000"):
            flip_angle_grid(0.0, 50_000.0, 1.0)
