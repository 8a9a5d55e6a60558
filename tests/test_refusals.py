"""Each library refusal raises ``ValueError`` with its message."""

import numpy as np
import pytest

from qprob import becsim, verify
from qprob.events import DensityOperator, Observable
from qprob.linalg import DEFAULT_TOL, SpectralDecomposition
from qprob.prospects import (
    CompositeState,
    bell_like_state,
    composite_in_eigenbasis,
    mode_pfq,
    partial_trace,
    prospect_probabilities,
)
from qprob.uncertain import ModeWeights

EQUAL = ModeWeights.normalized([1, 1])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CompositeState(DensityOperator.maximally_mixed(2), dim_a=0, dim_b=2), "factor dimensions must be positive"),
        (
            lambda: CompositeState(DensityOperator.maximally_mixed(2), dim_a=2, dim_b=2),
            "factor dimensions 2x2 do not match state dimension 2",
        ),
        (lambda: mode_pfq(np.eye(3), 2, 2, EQUAL), "matrix shape (3, 3) does not match factors 2x2"),
        (lambda: prospect_probabilities(bell_like_state(), EQUAL, mode="nope"), "unknown mode 'nope'"),
        (lambda: partial_trace(bell_like_state(), "C"), "keep must be 'A' or 'B', got 'C'"),
        (
            lambda: composite_in_eigenbasis(bell_like_state(), Observable.standard(3), Observable.standard(2)),
            "observable dimensions 3x2 do not match factors 2x2",
        ),
        (lambda: becsim.critical_amplitude(1.5, 0.0), "initial imbalance must satisfy |s0| <= 1, got 1.5"),
        (
            lambda: Observable(SpectralDecomposition(np.array([0.0, 1.0]), np.array([[1.0, 1.0], [0.0, 1.0]]))),
            f"eigenvectors are not orthonormal within {DEFAULT_TOL} (residual 1.000e+00)",
        ),
        (lambda: verify.run_checks(1, "nope"), f"unknown check group 'nope'; choose from {', '.join(verify.GROUPS)}"),
    ],
    ids=["factor-zero", "factor-mismatch", "mode-pfq-shape", "unknown-mode", "bad-keep",
         "observable-dims", "imbalance-above-one", "not-orthonormal", "unknown-group"],
)
def test_refused_input_raises(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
