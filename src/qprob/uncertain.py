"""Operationally uncertain measurements.

An uncertain union attaches complex amplitudes to the outcomes of one
observable; the resulting proposition operator is generally not a projector
and its probability splits into a classical diagonal part plus an
interference term, so uncertain unions are not additive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .events import DensityOperator, Observable, clamp_probability
from .linalg import DEFAULT_TOL, as_vector, outer

#: The interference term is real analytically; a larger imaginary residue
#: indicates a bug, not rounding.
IMAG_RESIDUE_TOL = 1e-10


@dataclass(frozen=True)
class ModeWeights:
    """Complex amplitudes over the modes of one observable.

    The squared magnitudes act as weights, so construction requires them to
    sum to one; use :meth:`normalized` to rescale raw amplitudes explicitly
    instead of relying on hidden rescaling.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = as_vector(self.values)
        total = float(np.sum(np.abs(v) ** 2))
        if abs(total - 1.0) >= DEFAULT_TOL:
            raise ValueError(f"squared weights sum to {total!r}, not 1 within {DEFAULT_TOL}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def probabilities(self) -> np.ndarray:
        """The weights |w_n|^2."""
        return np.abs(self.values) ** 2

    @classmethod
    def normalized(cls, values) -> "ModeWeights":
        """Build weights from raw amplitudes, rescaling to unit total weight."""
        v = as_vector(values)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero amplitude vector")
        return cls(v / norm)


@dataclass(frozen=True)
class UncertainUnion:
    """A set of possible outcomes of one observable, weighted by amplitudes."""

    observable: Observable
    weights: ModeWeights

    def __post_init__(self) -> None:
        if self.observable.dim != self.weights.dim:
            raise ValueError(
                f"weight length {self.weights.dim} does not match observable dimension {self.observable.dim}"
            )

    @property
    def dim(self) -> int:
        return self.observable.dim


class UncertainProbability(NamedTuple):
    """Probability of an uncertain union split into its two contributions."""

    p: float
    diagonal: float
    interference: float


def uncertain_state(union: UncertainUnion) -> np.ndarray:
    """The amplitude-weighted superposition of the observable's eigenvectors."""
    return union.observable.spectral.eigenvectors @ union.weights.values


def proposition_operator(union: UncertainUnion) -> np.ndarray:
    """Rank-one operator of the uncertain union.

    Hermitian, positive, trace one.  Unlike a standard event projector it is
    generally not an eigenprojector of the observable: it mixes modes, does
    not commute with the mode projectors, and operators of different unions
    are not mutually orthogonal.
    """
    state = uncertain_state(union)
    return outer(state, state)


def uncertain_probability(rho: DensityOperator, union: UncertainUnion) -> UncertainProbability:
    """Probability of an uncertain union in a given state.

    The diagonal part is the weight-averaged outcome probability; the
    interference part collects the off-diagonal state elements in the
    observable's eigenbasis.  Their sum is the trace of the state against
    the proposition operator.
    """
    if rho.dim != union.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, union {union.dim}")
    v = union.observable.spectral.eigenvectors
    rho_eig = v.conj().T @ rho.matrix @ v
    w = union.weights.values
    weight_probs = np.abs(w) ** 2
    diagonal = float(np.dot(weight_probs, rho_eig.diagonal().real))
    full = np.vdot(w, rho_eig @ w)
    interference = full - np.dot(weight_probs, rho_eig.diagonal())
    if abs(interference.imag) >= IMAG_RESIDUE_TOL:
        raise ArithmeticError(
            f"interference term has imaginary residue {interference.imag:.3e}; it must be real"
        )
    q = float(interference.real)
    p = clamp_probability(diagonal + q)
    return UncertainProbability(p=p, diagonal=diagonal, interference=q)
