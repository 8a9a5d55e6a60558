import numpy as np
import pytest

from qprob.events import DensityOperator
from qprob.linalg import outer
from qprob.sampling import random_density, random_unit_vector


def looped_density(rng, dim):
    """Oracle: the mixture drawn and summed one pure state at a time."""
    weights = rng.dirichlet(np.ones(dim))
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    for w in weights:
        v = random_unit_vector(rng, dim)
        matrix += w * outer(v, v)
    return matrix


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 16])
def test_random_density_matches_the_loop_bit_for_bit(dim):
    for seed in range(300):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rho = random_density(rng, dim)
        assert rho.matrix.tobytes() == looped_density(oracle_rng, dim).tobytes()
        # both leave the stream at the same place
        assert rng.standard_normal() == oracle_rng.standard_normal()


def test_random_density_is_a_full_support_state():
    rho = random_density(np.random.default_rng(3), 4)
    assert isinstance(rho, DensityOperator)
    assert np.all(np.linalg.eigvalsh(rho.matrix) > 0.0)
