"""Composite events on a bipartite tensor-product space.

A prospect joins a definite outcome of the first factor with an uncertain
union over the second: within that outcome's first-factor block it is an
uncertain union, and its probability splits as one does
(:func:`qprob.uncertain.interference_split`) into a classical part built from
joint probabilities and an interference part built from the state's
off-diagonal elements within the block.  Both factors are indexed in their
computational bases; states given in other eigenbases can be rotated first
with :func:`composite_in_eigenbasis`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .events import DensityOperator, Observable, clamp_probability
from .linalg import check_dim, kron, outer
from .uncertain import ModeWeights, interference_split


class DegenerateProspectError(ValueError):
    """Raised when a prospect family carries no probability mass to normalize."""


@dataclass(frozen=True)
class CompositeState:
    """A state on the tensor product of two factors of dimensions dim_a, dim_b."""

    rho: DensityOperator
    dim_a: int
    dim_b: int

    def __post_init__(self) -> None:
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("factor dimensions must be positive")
        if self.dim_a * self.dim_b != self.rho.dim:
            raise ValueError(
                f"factor dimensions {self.dim_a}x{self.dim_b} do not match state dimension {self.rho.dim}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return self.rho.matrix


@dataclass(frozen=True)
class Prospect:
    """Definite first-factor outcome ``n`` joined with weighted second-factor modes."""

    n: int
    weights: ModeWeights

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"mode index must be nonnegative, got {self.n}")


@dataclass(frozen=True)
class ProspectResult:
    """The probability family of a prospect triple.

    ``p`` is the full probability, ``f`` its classical (diagonal) part and
    ``q`` the interference factor, entrywise ``p = f + q``.  In normalized
    mode ``p`` and ``f`` each sum to one and ``q`` sums to zero.
    """

    p: np.ndarray
    f: np.ndarray
    q: np.ndarray
    mode: Literal["raw", "normalized"]


def joint_probability(state: CompositeState, n: int, alpha: int) -> float:
    """Probability of the elementary composite event (n, alpha), a one-outcome standard union."""
    return standard_union_probability(state, n, (alpha,))


def standard_union_probability(state: CompositeState, n: int, alphas: Iterable[int]) -> float:
    """Probability of outcome ``n`` joined with a standard union of second-factor modes.

    The trace against the summed projector is the sum of the diagonal entries
    (n * dim_b + alpha) it selects; additivity is a tested property.
    """
    idx = list(alphas)
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate indices in union: {idx}")
    if not 0 <= n < state.dim_a:
        raise IndexError(f"first-factor index {n} out of range for dimension {state.dim_a}")
    for alpha in idx:
        if not 0 <= alpha < state.dim_b:
            raise IndexError(f"second-factor index {alpha} out of range for dimension {state.dim_b}")
    if not idx:
        return 0.0
    p = state.matrix.diagonal().real[[n * state.dim_b + alpha for alpha in sorted(idx)]].sum()
    return clamp_probability(float(p))


def prospect_state(pr: Prospect, dim_a: int) -> np.ndarray:
    """The product vector placing the weight amplitudes into block ``n``."""
    if not 0 <= pr.n < dim_a:
        raise IndexError(f"mode index {pr.n} out of range for dimension {dim_a}")
    dim_b = pr.weights.dim
    state = np.zeros(dim_a * dim_b, dtype=np.complex128)
    state[pr.n * dim_b : (pr.n + 1) * dim_b] = pr.weights.values
    return state


def prospect_operator(pr: Prospect, dim_a: int) -> np.ndarray:
    """Rank-one operator of the prospect: Hermitian, positive, trace one."""
    state = prospect_state(pr, dim_a)
    return outer(state, state)


def mode_pfq(matrix: np.ndarray, dim_a: int, dim_b: int, weights: ModeWeights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw (p, f, q) families for an arbitrary Hermitian matrix.

    The matrix-level entry point: it does not require a valid density
    operator, which makes it usable on dephased matrices that have lost
    positivity.  Each first-factor block B_n is split by
    :func:`~qprob.uncertain.interference_split`; all blocks are taken at
    once from one strided view.
    """
    if matrix.shape != (dim_a * dim_b, dim_a * dim_b):
        raise ValueError(f"matrix shape {matrix.shape} does not match factors {dim_a}x{dim_b}")
    if weights.dim != dim_b:
        raise ValueError(f"weight length {weights.dim} does not match second factor {dim_b}")
    blocks = np.einsum("nanb->nab", matrix.reshape(dim_a, dim_b, dim_a, dim_b))
    f, q = interference_split(blocks, weights)
    return f + q, f, q


def prospect_probabilities(
    state: CompositeState,
    b: ModeWeights,
    mode: Literal["raw", "normalized"] = "raw",
) -> ProspectResult:
    """The (p, f, q) families over all first-factor outcomes.

    Raw mode returns the trace quantities as they come; their sums equal the
    uncertain-union probability of the second factor alone, not necessarily
    one.  Normalized mode divides ``p`` and ``f`` by their sums and recomputes
    ``q = p - f``, which makes ``p`` a probability measure, ``f`` its
    classical limit and ``q`` an alternating family summing to zero.
    """
    if mode not in ("raw", "normalized"):
        raise ValueError(f"unknown mode {mode!r}")
    p, f, q = mode_pfq(state.matrix, state.dim_a, state.dim_b, b)
    p = np.array([clamp_probability(v) for v in p])
    f = np.array([clamp_probability(v) for v in f])
    if mode == "raw":
        return ProspectResult(p=p, f=f, q=q, mode="raw")
    sum_p = float(p.sum())
    sum_f = float(f.sum())
    if sum_p < 1e-12 or sum_f < 1e-12:
        raise DegenerateProspectError(
            f"prospect family carries no mass to normalize (sum p {sum_p:.3e}, sum f {sum_f:.3e})"
        )
    p = p / sum_p
    f = f / sum_f
    return ProspectResult(p=p, f=f, q=p - f, mode="normalized")


def product_state(rho_a: DensityOperator, rho_b: DensityOperator) -> CompositeState:
    """The disentangled product of two single-factor states."""
    return CompositeState(
        rho=DensityOperator(kron(rho_a.matrix, rho_b.matrix)),
        dim_a=rho_a.dim,
        dim_b=rho_b.dim,
    )


def max_entangled_state(m: int) -> CompositeState:
    """The maximally entangled pure state of two m-mode factors.

    Equal-amplitude superposition of the doubled modes |kk>; both marginals
    are maximally mixed.  Built entrywise so the matrix is exact.
    """
    if m < 2:
        raise ValueError(f"need at least two modes, got {m}")
    check_dim(m * m)
    matrix = np.zeros((m * m, m * m), dtype=np.complex128)
    doubled = np.arange(m) * (m + 1)
    matrix[np.ix_(doubled, doubled)] = 1.0 / m
    return CompositeState(rho=DensityOperator(matrix), dim_a=m, dim_b=m)


def entanglement_measure_maxstate(m: int) -> float:
    """Entanglement production of the maximally entangled m-mode state, in bits."""
    if m < 2:
        raise ValueError(f"need at least two modes, got {m}")
    return math.log2(m)


def partial_trace(state: CompositeState, keep: Literal["A", "B"]) -> DensityOperator:
    """Marginal state of one factor."""
    blocks = state.matrix.reshape(state.dim_a, state.dim_b, state.dim_a, state.dim_b)
    if keep == "A":
        reduced = np.einsum("ibjb->ij", blocks)
    elif keep == "B":
        reduced = np.einsum("aiaj->ij", blocks)
    else:
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    return DensityOperator(reduced)


def dephase_modes(state: CompositeState) -> np.ndarray:
    """Zero the interference-carrying entries of the state matrix.

    Those are the off-diagonal elements within each diagonal first-factor
    block; everything else is kept.  The result stays Hermitian with unit
    trace but can lose positivity, so a plain matrix is returned; feed it to
    :func:`mode_pfq` rather than rebuilding a state from it.
    """
    matrix = state.matrix.copy()
    for n in range(state.dim_a):
        lo, hi = n * state.dim_b, (n + 1) * state.dim_b
        block = matrix[lo:hi, lo:hi]
        matrix[lo:hi, lo:hi] = np.diag(block.diagonal())
    return matrix


def composite_in_eigenbasis(state: CompositeState, obs_a: Observable, obs_b: Observable) -> CompositeState:
    """Rotate a composite state into the eigenbases of per-factor observables."""
    if obs_a.dim != state.dim_a or obs_b.dim != state.dim_b:
        raise ValueError(
            f"observable dimensions {obs_a.dim}x{obs_b.dim} do not match factors {state.dim_a}x{state.dim_b}"
        )
    u = kron(obs_a.spectral.eigenvectors, obs_b.spectral.eigenvectors)
    rotated = u.conj().T @ state.matrix @ u
    return CompositeState(rho=DensityOperator(rotated), dim_a=state.dim_a, dim_b=state.dim_b)
