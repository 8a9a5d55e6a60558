"""Dense complex linear algebra for small Hilbert-space dimensions.

Vectors are 1-d complex128 arrays, matrices 2-d complex128 arrays; every
function is pure and never mutates its arguments.  Dimensions are expected
to stay small (the eigensolver caps at 64), so clarity beats asymptotics
throughout.  A Hermitian input is checked once, by one helper, for
finiteness, squareness, that cap and Hermiticity; the eigensolver and the
state validation in :mod:`qprob.events` both go through it.

At these sizes a numpy module-level wrapper such as ``np.kron``, ``np.all``,
``np.max`` or ``np.trace`` costs more than the arithmetic it dispatches, so
the per-call paths use ndarray methods and broadcast products that run the
same floating-point operations, bit for bit, without the wrapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Max-norm tolerance of every Hermiticity, trace, positivity, orthonormality
#: and weight-normalization check.
DEFAULT_TOL = 1e-10

#: Kronecker products larger than this many entries are refused.
MAX_KRON_ENTRIES = 2**20

#: Largest dimension accepted by the eigensolver.
MAX_EIGEN_DIM = 64

#: Smallest positive normal double: a squared norm below it has lost bits.
NORMAL_MIN = float(np.finfo(np.float64).tiny)


class NotHermitianError(ValueError):
    """Raised when a matrix fails its Hermiticity check."""


class OutcomeIndexError(ValueError, IndexError):
    """Raised when an outcome index leaves its dimension: invalid input, and
    an ``IndexError`` for callers that catch one."""


class NoConvergenceError(ArithmeticError):
    """Raised when the eigensolver does not converge."""


def as_vector(v) -> np.ndarray:
    """Validate and return ``v`` as a finite 1-d complex128 array."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"expected a nonempty 1-d vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("vector has non-finite entries")
    return arr


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a finite 2-d complex128 array."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix has non-finite entries")
    return arr


def kron(a, b) -> np.ndarray:
    """Kronecker product ``a (x) b`` on the combined space.

    The broadcast product is the one ``np.kron`` computes after its
    ``expand_dims`` calls, so the entries are the same bits.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    entries = a.shape[0] * a.shape[1] * b.shape[0] * b.shape[1]
    if entries > MAX_KRON_ENTRIES:
        raise ValueError(f"kron result would have {entries} entries (limit {MAX_KRON_ENTRIES})")
    product = a[:, None, :, None] * b[None, :, None, :]
    return product.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def trace(a) -> complex:
    """Trace of a square matrix."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"trace requires a square matrix, got {a.shape}")
    return complex(np.trace(a))


def outer(u, v) -> np.ndarray:
    """Outer product |u><v|, i.e. entry (i, j) = u_i * conj(v_j)."""
    return np.outer(as_vector(u), as_vector(v).conj())


def scaled_norm(v: np.ndarray) -> tuple[np.ndarray, float]:
    """``(u, |u|)`` for a finite complex vector ``v``, where ``u / |u|`` is
    the unit vector along ``v`` and ``|u|`` is 0 only for the zero vector.

    ``|u|`` is ``sqrt(Re u . Re u + Im u . Im u)``, the formula
    ``np.linalg.norm`` evaluates for a complex vector.  ``u`` is ``v`` itself
    unless that squared norm is 0 or subnormal, or :func:`squares_fit` finds
    that it could overflow; then ``u`` is ``v`` scaled by the power of two of
    :func:`power_of_two_scaled`, which brings the squared norm into the
    normal range without a warning.
    """
    squared = _squared_norm(v)
    if not NORMAL_MIN <= squared < math.inf:
        v = power_of_two_scaled(v)[0]
        squared = _squared_norm(v)
    return v, math.sqrt(squared)


def _squared_norm(v: np.ndarray) -> float:
    """``Re v . Re v + Im v . Im v``, or inf where a square or the sum could overflow."""
    if not squares_fit(abs(v)):
        return math.inf
    re, im = v.real, v.imag
    return float(re.dot(re) + im.dot(im))


def squares_fit(magnitudes: np.ndarray) -> bool:
    """Whether the squares of ``magnitudes`` (finite, nonnegative, nonempty)
    and their sum stay below 2**1023, so that none overflows.  Decided from
    the largest entry on Python floats, which costs less than ``np.errstate``."""
    top = magnitudes.item(magnitudes.argmax())
    return top * top * magnitudes.size < 2.0**1023


def power_of_two_scaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """``(v * 2**-e, e)``, with ``e`` the exponent that brings the largest
    real or imaginary part of ``v`` into [1, 2); ``(v, 0)`` for the zero
    vector and for one with a non-finite entry.  A power of two is applied in
    two halves, so that neither factor overflows, and each product is exact
    wherever it is normal."""
    top = float(max(abs(v.real).max(), abs(v.imag).max()))
    if top == 0.0 or not math.isfinite(top):
        return v, 0
    e = math.frexp(top)[1] - 1
    half = e // 2
    return v * 2.0**-half * 2.0 ** (half - e), e


def check_dim(dim: int) -> None:
    """Refuse a dimension below 1 or above ``MAX_EIGEN_DIM``; constructors call
    it before they allocate a matrix of that size."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    if dim > MAX_EIGEN_DIM:
        raise ValueError(f"dimension {dim} exceeds supported maximum {MAX_EIGEN_DIM}")


def check_outcomes(indices: Sequence[int], dim: int, what: str = "mode") -> None:
    """Refuse outcome ``indices`` that repeat one (``ValueError``) or leave
    [0, dim) (:class:`OutcomeIndexError`); ``what`` names the index in the
    message."""
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate indices in union: {indices}")
    for n in indices:
        if not 0 <= n < dim:
            raise OutcomeIndexError(f"{what} index {n} out of range for dimension {dim}")


def checked_hermitian(a) -> np.ndarray:
    """``a`` as a finite square matrix, at most ``MAX_EIGEN_DIM`` wide, with
    ``|a - a^H|`` below ``DEFAULT_TOL`` in max-norm."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got {a.shape}")
    check_dim(a.shape[0])
    residual = float(abs(a - a.conj().T).max())
    if residual >= DEFAULT_TOL:
        raise NotHermitianError(f"matrix is not Hermitian within {DEFAULT_TOL} (residual {residual:.3e})")
    return a


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (real, ascending) and orthonormal eigenvectors of a
    Hermitian matrix.  Column ``k`` of ``eigenvectors`` belongs to
    ``eigenvalues[k]``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def gram_residual(self) -> float:
        """Max-norm deviation of the eigenvector Gram matrix from identity."""
        v = self.eigenvectors
        return float(abs(v.conj().T @ v - np.eye(self.dim)).max())


def hermitian_eigen(a) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Eigenvalues come out ascending; eigenvectors are orthonormal and rebuild
    the input to within ``10 * DEFAULT_TOL`` in max-norm.  For a degenerate cluster
    the eigenvectors are just some orthonormal basis of the eigenspace.

    Raises:
        NotHermitianError: the max-norm residual ``|a - a^H|`` is >= DEFAULT_TOL.
        NoConvergenceError: the underlying iteration failed to converge.
        ValueError: non-square input or dimension above ``MAX_EIGEN_DIM``.
    """
    a = checked_hermitian(a)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    return SpectralDecomposition(eigenvalues=values, eigenvectors=vectors)
