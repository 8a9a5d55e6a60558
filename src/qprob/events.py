"""Operationally testable (projective) measurements.

A measurement outcome is a rank-one projector of an observable's spectral
decomposition; its probability in a state rho is the trace of rho against
that projector.  Unions of distinct outcomes are additive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    SpectralDecomposition,
    as_vector,
    check_dim,
    check_outcomes,
    checked_hermitian,
    hermitian_eigen,
    outer,
    scaled_norm,
)

#: Probabilities may stick out of [0, 1] by at most this much before the
#: excess is treated as a logic error rather than floating-point dust.
PROBABILITY_DUST = 1e-9


def clamp_probability(p: float) -> float:
    """Clamp ``p`` into [0, 1] after checking the violation is mere dust (a NaN is not)."""
    if not -PROBABILITY_DUST <= p <= 1.0 + PROBABILITY_DUST:
        raise ArithmeticError(f"probability {p!r} violates [0, 1] beyond dust threshold {PROBABILITY_DUST}")
    return min(1.0, max(0.0, p))


@dataclass(frozen=True)
class DensityOperator:
    """Trace-one positive Hermitian matrix describing a system state.

    Construction validates all three invariants and fails loudly instead of
    repairing the input; repairing silently would mask caller bugs.  Derived
    states are validated too, all three at tolerance ``DEFAULT_TOL``.
    Cholesky of a shifted copy, ``matrix`` with ``DEFAULT_TOL`` added to its
    diagonal, succeeds exactly when no eigenvalue is below ``-DEFAULT_TOL``;
    only if it fails are the eigenvalues computed, to decide and to report.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = checked_hermitian(self.matrix)
        tr = float(m.trace().real)
        if abs(tr - 1.0) >= DEFAULT_TOL:
            raise ValueError(f"state trace {tr!r} is not 1 within {DEFAULT_TOL}")
        shifted = m.copy()
        shifted.reshape(-1)[:: m.shape[0] + 1] += DEFAULT_TOL
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            smallest = np.linalg.eigvalsh(m)[0]
            if smallest < -DEFAULT_TOL:
                raise ValueError(f"state has negative eigenvalue {smallest:.3e}") from None
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, vector) -> "DensityOperator":
        """Rank-one state |v><v| from a (not necessarily normalized) vector."""
        v, norm = scaled_norm(as_vector(vector))
        if norm == 0.0:
            raise ValueError("cannot build a pure state from the zero vector")
        v = v / norm
        return cls(outer(v, v))

    @classmethod
    def diagonal(cls, probabilities: Sequence[float]) -> "DensityOperator":
        """Classical mixture diag(p_1, ..., p_d)."""
        p = np.asarray(probabilities, dtype=float)
        return cls(np.diag(p.astype(np.complex128)))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        check_dim(dim)
        return cls(np.eye(dim, dtype=np.complex128) / dim)


@dataclass(frozen=True)
class Observable:
    """An observable given by its spectral decomposition.

    The eigenvectors define the measurement basis; the eigenvalues only label
    outcomes.  Constructing from a raw decomposition re-checks orthonormality.
    """

    spectral: SpectralDecomposition

    def __post_init__(self) -> None:
        gram = self.spectral.gram_residual()
        if gram >= DEFAULT_TOL:
            raise ValueError(f"eigenvectors are not orthonormal within {DEFAULT_TOL} (residual {gram:.3e})")

    @property
    def dim(self) -> int:
        return self.spectral.dim

    @classmethod
    def standard(cls, dim: int) -> "Observable":
        """Observable whose eigenbasis is the computational basis, eigenvalue n for mode n."""
        check_dim(dim)
        return cls(
            SpectralDecomposition(
                eigenvalues=np.arange(dim, dtype=float),
                eigenvectors=np.eye(dim, dtype=np.complex128),
            )
        )

    @classmethod
    def from_matrix(cls, matrix) -> "Observable":
        """Diagonalize a Hermitian matrix into an Observable."""
        return cls(hermitian_eigen(matrix))


def _check_same_dim(rho: DensityOperator, obs: Observable) -> None:
    if rho.dim != obs.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, observable {obs.dim}")


def event_probability(rho: DensityOperator, obs: Observable, n: int) -> float:
    """Probability of observing outcome ``n``: the trace of rho against P_n."""
    _check_same_dim(rho, obs)
    check_outcomes((n,), obs.dim)
    v = obs.spectral.eigenvectors[:, n]
    p = np.vdot(v, rho.matrix @ v)
    return clamp_probability(float(p.real))


def union_probability(rho: DensityOperator, obs: Observable, indices: Iterable[int]) -> float:
    """Probability of the standard (orthogonal, additive) union of outcomes.

    Computed as the sum of v^H rho v over the selected eigenvectors, which is
    the trace of rho against the summed projector without building it.
    """
    _check_same_dim(rho, obs)
    idx = list(indices)
    check_outcomes(idx, obs.dim)
    if not idx:
        return 0.0
    v = obs.spectral.eigenvectors[:, idx]
    p = np.sum(v.conj() * (rho.matrix @ v))
    return clamp_probability(float(p.real))
