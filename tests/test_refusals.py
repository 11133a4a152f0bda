"""Refusals of outside input across the library: each raises its own error
class (``is_normal`` answers False on a non-square input instead of raising)."""

import numpy as np
import pytest

from gruss_lab import (
    ContractError,
    DimensionError,
    amplify,
    choi_map,
    compose,
    decompose_unitary_sum,
    from_choi,
    identity_map,
    is_normal,
    matrix_from_json,
    mix,
    random_unital_cp,
    run_trials,
    scalar_unimodular_sum,
    transpose_map,
)
from gruss_lab.linalg import ensemble_sample


@pytest.mark.parametrize("call, outcome", [
    (lambda: run_trials("theorem", family="bogus", trials=1), ContractError),
    (lambda: from_choi(np.eye(4), 2, 3), DimensionError),
    (lambda: compose(identity_map(3), identity_map(2)), DimensionError),
    (lambda: mix([], []), ContractError),
    (lambda: mix([identity_map(2)], [0.5, 0.5]), ContractError),
    (lambda: mix([identity_map(2), identity_map(3)], [0.5, 0.5]), DimensionError),
    (lambda: amplify(identity_map(2), 0), ContractError),
    (lambda: transpose_map(1), ContractError),
    (lambda: choi_map(1), ContractError),
    (lambda: random_unital_cp(3, 0), ContractError),
    (lambda: ensemble_sample("ginibre", 0), ContractError),
    (lambda: decompose_unitary_sum(0.5 * np.eye(2), 1, "relaxed"), ContractError),
    (lambda: decompose_unitary_sum(0.5 * np.eye(2), 3, "loose"), ContractError),
    (lambda: scalar_unimodular_sum(0.5, 3, "loose"), ContractError),
    (lambda: matrix_from_json({"rows": 1, "cols": 1, "re": 1.0, "im": 0.0}), DimensionError),
    (lambda: is_normal(np.ones((2, 3))), False),
    (lambda: is_normal(np.full((2, 2), np.nan)), ContractError),
    (lambda: is_normal([[np.inf, 0], [0, 1]]), ContractError),
], ids=["run-trials-family", "from-choi-size", "compose-inner-dims", "mix-empty",
        "mix-unequal-counts", "mix-mixed-dims", "amplify-zero", "transpose-dim-one",
        "choi-map-dim-one", "kraus-rank-zero", "ensemble-dim-zero", "relaxed-m-one",
        "decompose-mode", "unimodular-mode", "matrix-json-scalar-parts", "is-normal-2x3",
        "is-normal-nan", "is-normal-inf"])
def test_outside_input_is_refused_with_its_error_class(call, outcome):
    if outcome is False:
        assert call() is False
        return
    with pytest.raises(outcome) as info:
        call()
    assert type(info.value) is outcome
