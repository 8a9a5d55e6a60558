"""Seeded random instances for property checks.

Pure states come from normalized complex Gaussian vectors; mixed states are
convex mixtures of d such pure states with simplex-uniform weights; random
observables diagonalize Gaussian Hermitian matrices.  Everything is driven
by an explicit numpy Generator so suites are reproducible.
"""

from __future__ import annotations

import numpy as np

from .events import DensityOperator, Observable
from .linalg import check_dim, outer
from .prospects import CompositeState
from .uncertain import ModeWeights


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, dim: int) -> DensityOperator:
    """Full-support mixed state: simplex-weighted mixture of dim pure states.

    The dim pure states are drawn in one call, in the order of dim calls to
    :func:`random_unit_vector`, and the terms are summed in that order.
    """
    check_dim(dim)
    weights = rng.dirichlet(np.ones(dim))
    parts = rng.standard_normal((dim, 2, dim))
    vectors = parts[:, 0] + 1j * parts[:, 1]
    vectors /= np.array([np.linalg.norm(v) for v in vectors])[:, None]
    terms = weights[:, None, None] * (vectors[:, :, None] * vectors.conj()[:, None, :])
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    for term in terms:
        matrix += term
    return DensityOperator(matrix)


def random_observable(rng: np.random.Generator, dim: int) -> Observable:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Observable.from_matrix((g + g.conj().T) / 2.0)


def random_weights(rng: np.random.Generator, dim: int) -> ModeWeights:
    return ModeWeights.normalized(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def random_entangled_pure(rng: np.random.Generator, dim_a: int, dim_b: int) -> CompositeState:
    """Generic pure state on the product space (entangled with probability one)."""
    v = random_unit_vector(rng, dim_a * dim_b)
    return CompositeState(rho=DensityOperator(outer(v, v)), dim_a=dim_a, dim_b=dim_b)
