"""Operationally uncertain measurements.

An uncertain union attaches complex amplitudes to the outcomes of one
observable; the resulting proposition operator is generally not a projector
and its probability splits into a classical diagonal part plus an
interference term, so uncertain unions are not additive.  That split,
:func:`interference_split`, is also the one of each prospect block in
:mod:`qprob.prospects`: a prospect block is an uncertain union.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .events import DensityOperator, Observable, clamp_probability
from .linalg import DEFAULT_TOL, NORMAL_MIN, as_vector, outer, power_of_two_scaled, scaled_norm

#: The interference term is real analytically; a larger imaginary residue
#: indicates a bug, not rounding.
IMAG_RESIDUE_TOL = 1e-10


@dataclass(frozen=True)
class ModeWeights:
    """Complex amplitudes over the modes of one observable.

    The squared magnitudes act as weights, so construction requires them to
    sum to one within ``DEFAULT_TOL``; use :meth:`normalized` to rescale raw
    amplitudes explicitly instead of relying on hidden rescaling.  A sum that
    is 0, subnormal or infinite is reported as the true sum, taken after a
    power-of-two scaling, with no overflow warning.
    """

    values: np.ndarray
    _probabilities: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        v = as_vector(self.values)
        magnitudes = abs(v)
        top, total = magnitudes.item(magnitudes.argmax()), np.inf
        if top * top * v.size < 2.0**1023:  # no square or sum overflows; cheaper than errstate
            probabilities = magnitudes**2
            total = float(probabilities.sum())
        if not NORMAL_MIN <= total < np.inf:  # far from 1: only the message needs it
            scaled, e = power_of_two_scaled(v)
            total = float((abs(scaled) ** 2).sum()) * 2.0**e * 2.0**e
        if abs(total - 1.0) >= DEFAULT_TOL:
            raise ValueError(f"squared weights sum to {total!r}, not 1 within {DEFAULT_TOL}")
        v = v.copy()
        v.setflags(write=False)
        probabilities.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_probabilities", probabilities)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def probabilities(self) -> np.ndarray:
        """The weights |w_n|^2, read-only."""
        return self._probabilities

    @classmethod
    def normalized(cls, values) -> "ModeWeights":
        """Build weights from raw amplitudes, rescaling to unit total weight."""
        v, norm = scaled_norm(as_vector(values))
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


def interference_split(blocks: np.ndarray, weights: ModeWeights) -> tuple[np.ndarray, np.ndarray]:
    """Classical part f and interference part q of ``<w|B|w> = f + q``.

    ``blocks`` is one Hermitian block B or a stack of them.  f is the
    |w|^2-weighted diagonal of each block, q its weighted off-diagonals,
    which are real analytically; an imaginary residue of at least
    ``IMAG_RESIDUE_TOL`` raises ArithmeticError.
    """
    w = weights.values
    weight_probs = weights.probabilities()
    # Positional axes and a max over .flat serve one block and a stack alike
    # at a fraction of the keyword parsing and ndarray.max dispatch; as with
    # ndarray.max, a NaN anywhere in the imaginary parts raises nothing.
    diag = blocks.diagonal(0, -2, -1)
    f = diag.real @ weight_probs
    interference = (blocks @ w) @ w.conj() - diag @ weight_probs
    residue = float(max(abs(interference.imag).flat))
    if residue >= IMAG_RESIDUE_TOL and not np.isnan(interference.imag).any():
        raise ArithmeticError(f"interference term has imaginary residue {residue:.3e}; it must be real")
    return f, interference.real


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
    f, q = interference_split(v.conj().T @ rho.matrix @ v, union.weights)
    diagonal, q = float(f), float(q)
    return UncertainProbability(p=clamp_probability(diagonal + q), diagonal=diagonal, interference=q)
