"""Dense complex linear algebra for small Hilbert-space dimensions.

Vectors are 1-d complex128 arrays, matrices 2-d complex128 arrays; every
function is pure and never mutates its arguments.  Dimensions are expected
to stay small (the eigensolver caps at 64), so clarity beats asymptotics
throughout.  A Hermitian input is checked once, by one helper, for
finiteness, squareness, that cap and Hermiticity; the eigensolver and the
state validation in :mod:`qprob.events` both go through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Max-norm tolerance of every Hermiticity, trace, positivity, orthonormality
#: and weight-normalization check.
DEFAULT_TOL = 1e-10

#: Kronecker products larger than this many entries are refused.
MAX_KRON_ENTRIES = 2**20

#: Largest dimension accepted by the eigensolver.
MAX_EIGEN_DIM = 64


class NotHermitianError(ValueError):
    """Raised when a matrix fails its Hermiticity check."""


class NoConvergenceError(RuntimeError):
    """Raised when the eigensolver does not converge."""


def as_vector(v) -> np.ndarray:
    """Validate and return ``v`` as a finite 1-d complex128 array."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"expected a nonempty 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector has non-finite entries")
    return arr


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a finite 2-d complex128 array."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    return arr


def kron(a, b) -> np.ndarray:
    """Kronecker product ``a (x) b`` on the combined space."""
    a = as_matrix(a)
    b = as_matrix(b)
    entries = a.shape[0] * a.shape[1] * b.shape[0] * b.shape[1]
    if entries > MAX_KRON_ENTRIES:
        raise ValueError(f"kron result would have {entries} entries (limit {MAX_KRON_ENTRIES})")
    return np.kron(a, b)


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T.copy()


def trace(a) -> complex:
    """Trace of a square matrix."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"trace requires a square matrix, got {a.shape}")
    return complex(np.trace(a))


def outer(u, v) -> np.ndarray:
    """Outer product |u><v|, i.e. entry (i, j) = u_i * conj(v_j)."""
    return np.outer(as_vector(u), as_vector(v).conj())


def check_dim(dim: int) -> None:
    """Refuse a dimension below 1 or above ``MAX_EIGEN_DIM``; constructors call
    it before they allocate a matrix of that size."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    if dim > MAX_EIGEN_DIM:
        raise ValueError(f"dimension {dim} exceeds supported maximum {MAX_EIGEN_DIM}")


def checked_hermitian(a) -> np.ndarray:
    """``a`` as a finite square matrix, at most ``MAX_EIGEN_DIM`` wide, with
    ``|a - a^H|`` below ``DEFAULT_TOL`` in max-norm."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got {a.shape}")
    check_dim(a.shape[0])
    residual = float(np.max(np.abs(a - a.conj().T)))
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

    def projector(self, n: int) -> np.ndarray:
        """Rank-one projector onto the n-th eigenvector."""
        v = self.eigenvectors[:, n]
        return outer(v, v)

    def recompose(self) -> np.ndarray:
        """Rebuild the original matrix as the eigenvalue-weighted projector sum."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def gram_residual(self) -> float:
        """Max-norm deviation of the eigenvector Gram matrix from identity."""
        v = self.eigenvectors
        return float(np.max(np.abs(v.conj().T @ v - np.eye(self.dim))))


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
