"""A stacked DensityMatrix passed where a state is taken: every public function
either returns one result per state, bitwise the single-state call's, or raises
a ValueError that names the stack.  A silent answer for the whole stack fails."""

import inspect

import numpy as np
import pytest

import ipower
from ipower import (
    DensityMatrix,
    adaptive_localize,
    evolve,
    hs_fidelity,
    interferometric_power,
    ip_grid_search,
    local_quantum_uncertainty,
    min_local_variance,
    partial_trace,
    population_model,
    qfi,
    qfi_quadratic_form,
    qfi_sphere_grid,
    save_state,
    setting_hamiltonian,
    skew_grid_search,
    skew_information,
    sld,
)
from ipower.sampling import (
    apply_channel_b,
    depolarizing_kraus,
    random_density_matrix,
    remix_degenerate_eigenspaces,
)

HAM = setting_hamiltonian(2)

# name -> call(rho, one), with rho the state under test and one a single state
# of the same dims.
CALLS = {
    "interferometric_power": lambda rho, one: interferometric_power(rho),
    "local_quantum_uncertainty": lambda rho, one: local_quantum_uncertainty(rho),
    "qfi_quadratic_form": lambda rho, one: qfi_quadratic_form(rho),
    "purity": lambda rho, one: rho.purity(),
    "to_json_dict": lambda rho, one: rho.to_json_dict(),
    "qfi": lambda rho, one: qfi(rho, HAM),
    "skew_information": lambda rho, one: skew_information(rho, HAM),
    "sld": lambda rho, one: sld(rho, HAM, 0.3),
    "qfi_sphere_grid": lambda rho, one: qfi_sphere_grid(rho, 8, 8),
    "ip_grid_search": lambda rho, one: ip_grid_search(rho, 64, 64),
    "skew_grid_search": lambda rho, one: skew_grid_search(rho),
    "min_local_variance": lambda rho, one: min_local_variance(rho),
    "population_model": lambda rho, one: population_model(rho, HAM, sld(one, HAM, 0.3)),
    "adaptive_localize": lambda rho, one: adaptive_localize(rho, HAM, 0.3, max_iters=2),
    "evolve": lambda rho, one: evolve(rho, HAM, 0.3),
    "hs_fidelity": lambda rho, one: hs_fidelity(rho, one),
    "hs_fidelity (second argument)": lambda rho, one: hs_fidelity(one, rho),
    "partial_trace": lambda rho, one: partial_trace(rho, "B"),
    "save_state": None,  # in test_save_state_rejects_a_stack_before_writing
    "apply_channel_b": lambda rho, one: apply_channel_b(rho, depolarizing_kraus(0.5)),
    "remix_degenerate_eigenspaces": lambda rho, one: remix_degenerate_eigenspaces(
        rho, np.random.default_rng(0)
    ),
}

# The calls that take a stack state by state; every other call rejects one.
PER_STATE = {"interferometric_power", "local_quantum_uncertainty", "qfi_quadratic_form", "purity"}


def two_state_stack(d_b):
    rng = np.random.default_rng(220 + d_b)
    states = [random_density_matrix((2, d_b), rng) for _ in range(2)]
    return states, DensityMatrix.from_matrix(np.stack([rho.matrix for rho in states]), (2, d_b))


def test_every_public_function_taking_a_state_is_called():
    takes_state = {
        name
        for name in ipower.__all__
        if inspect.isfunction(obj := getattr(ipower, name))
        and any("DensityMatrix" in str(p.annotation)
                for p in inspect.signature(obj).parameters.values())
    }
    assert takes_state and takes_state <= set(CALLS)


@pytest.mark.parametrize("d_b", [2, 3])
@pytest.mark.parametrize("name", [name for name, call in CALLS.items() if call is not None])
def test_stack_is_taken_state_by_state_or_rejected(name, d_b):
    call = CALLS[name]
    states, stack = two_state_stack(d_b)
    try:
        result = call(stack, states[0])
    except ValueError as exc:  # a deliberate rejection names the stack
        assert name not in PER_STATE and "stack" in str(exc), exc
        return
    assert name in PER_STATE, f"{name} returned {result!r} for a stack"
    assert len(result) == len(states)
    for got, rho in zip(result, states):
        assert np.asarray(got).tobytes() == np.asarray(call(rho, states[0])).tobytes()


def test_save_state_rejects_a_stack_before_writing(tmp_path):
    _, stack = two_state_stack(2)
    path = tmp_path / "stack.json"
    with pytest.raises(ValueError, match="stack"):
        save_state(stack, path)
    assert not path.exists()


def test_a_stacked_payload_does_not_load_as_a_stack():
    _, stack = two_state_stack(2)
    payload = {"dims": [2, 2], "re": stack.matrix.real.tolist(),
               "im": stack.matrix.imag.tolist()}
    with pytest.raises(ValueError, match="square matrix"):
        DensityMatrix.from_json_dict(payload)
