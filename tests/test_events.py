import numpy as np
import pytest

from qprob.events import (
    DensityOperator,
    Observable,
    clamp_probability,
    event_probability,
    union_probability,
)
from qprob.linalg import DEFAULT_TOL, SpectralDecomposition
from qprob.sampling import random_density, random_observable


RNG = np.random.default_rng(777)


class TestDensityOperator:
    def test_valid_diagonal(self):
        rho = DensityOperator.diagonal([0.3, 0.7])
        assert rho.dim == 2
        assert np.trace(rho.matrix).real == pytest.approx(1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityOperator(np.diag([1.5, -0.5]).astype(complex))

    def test_matrix_is_read_only(self):
        rho = DensityOperator.maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0

    def test_pure_normalizes(self):
        rho = DensityOperator.pure([2.0, 0.0])
        assert rho.matrix[0, 0] == pytest.approx(1.0)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError, match="exceeds supported maximum 64"):
            DensityOperator(np.eye(65, dtype=complex) / 65)

    @pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-320, 1e200, 1.7e308])
    def test_pure_state_of_a_vector_outside_the_normal_range(self, scale):
        # the squared norm underflows, turns subnormal or overflows
        expected = DensityOperator.pure([1.0, 1.0j]).matrix
        got = DensityOperator.pure([scale, scale * 1j]).matrix
        assert np.max(np.abs(got - expected)) <= 1e-15

    def test_pure_refuses_the_zero_vector(self):
        with pytest.raises(ValueError, match="cannot build a pure state from the zero vector"):
            DensityOperator.pure([0.0, 0.0])

    @pytest.mark.parametrize("writeable", [True, False])
    def test_construction_leaves_the_callers_matrix_alone(self, writeable):
        m = random_density(RNG, 4).matrix.copy()
        m.setflags(write=writeable)
        before = m.tobytes()
        rho = DensityOperator(m)
        assert m.tobytes() == before and m.flags.writeable == writeable
        assert rho.matrix is not m and rho.matrix.tobytes() == before

    @pytest.mark.parametrize("k", [0.0, 0.5, 0.9, 0.999, 1.001, 1.1, 2.0, 10.0, 1000.0])
    def test_positivity_agrees_with_eigvalsh_at_the_tolerance(self, monkeypatch, k):
        """States with smallest eigenvalue -k * tol over dims 2-64: accepted
        exactly when eigvalsh puts that eigenvalue at or above -tol, and
        without any eigenvector computation."""
        tol = DEFAULT_TOL
        rng = np.random.default_rng([7, round(1000 * k)])
        states = []
        for dim in range(2, 65):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            u, _ = np.linalg.qr(g)
            rest = rng.uniform(0.1, 1.0, dim - 1)
            spectrum = np.concatenate(([-k * tol], rest * (1.0 + k * tol) / rest.sum()))
            m = (u * spectrum) @ u.conj().T
            states.append((m + m.conj().T) / 2.0)

        def no_eigenvectors(*args, **kwargs):
            raise AssertionError("DensityOperator must not compute eigenvectors")

        monkeypatch.setattr(np.linalg, "eigh", no_eigenvectors)
        for m in states:
            if np.linalg.eigvalsh(m)[0] < -tol:
                with pytest.raises(ValueError, match="negative eigenvalue"):
                    DensityOperator(m)
            else:
                DensityOperator(m)


class TestClampProbability:
    @pytest.mark.parametrize("nan", [float("nan"), np.float64("nan")], ids=["float", "float64"])
    def test_scalar_rejects_nan(self, nan):
        with pytest.raises(ArithmeticError, match="nan"):
            clamp_probability(nan)

    def test_dust_is_clamped_and_excess_rejected(self):
        for v, want in ((-1e-10, 0.0), (0.0, 0.0), (0.25, 0.25), (1.0, 1.0), (1.0 + 1e-10, 1.0)):
            assert clamp_probability(v) == want
        for bad in (-2e-9, 1.0 + 2e-9, float("inf"), -float("inf")):
            with pytest.raises(ArithmeticError, match="dust"):
                clamp_probability(bad)


class TestObservable:
    @pytest.mark.parametrize("dim, message", [(0, "positive"), (-1, "positive"), (65, "exceeds supported maximum 64")])
    def test_standard_observable_checks_its_dimension(self, dim, message):
        with pytest.raises(ValueError, match=message):
            Observable.standard(dim)


class TestEventProbability:
    def test_diagonal_readout(self):
        rho = DensityOperator.diagonal([0.3, 0.7])
        assert event_probability(rho, Observable.standard(2), 0) == pytest.approx(0.3, abs=1e-15)

    def test_plus_state(self):
        rho = DensityOperator.pure([1.0, 1.0])
        assert event_probability(rho, Observable.standard(2), 0) == pytest.approx(0.5, abs=1e-15)

    def test_probability_measure_over_random_pairs(self):
        # 250 pairs per dimension: each family lies in [0, 1] and sums to one
        for dim in (2, 3, 4, 8):
            for _ in range(250):
                rho = random_density(RNG, dim)
                obs = random_observable(RNG, dim)
                probs = [event_probability(rho, obs, n) for n in range(dim)]
                assert all(0.0 <= p <= 1.0 for p in probs)
                assert sum(probs) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            event_probability(DensityOperator.maximally_mixed(2), Observable.standard(3), 0)

    def test_global_phase_invariance(self):
        obs = random_observable(RNG, 3)
        rho = random_density(RNG, 3)
        phased_vectors = obs.spectral.eigenvectors.copy()
        phased_vectors[:, 1] *= np.exp(1j * 0.83)
        phased = Observable(
            SpectralDecomposition(
                eigenvalues=obs.spectral.eigenvalues, eigenvectors=phased_vectors
            )
        )
        for n in range(3):
            assert event_probability(rho, phased, n) == pytest.approx(
                event_probability(rho, obs, n), abs=1e-14
            )


class TestUnionProbability:
    def test_all_indices_give_one(self):
        rho = random_density(RNG, 4)
        obs = random_observable(RNG, 4)
        assert union_probability(rho, obs, range(4)) == pytest.approx(1.0, abs=1e-10)

    def test_empty_set_gives_zero(self):
        assert union_probability(DensityOperator.maximally_mixed(2), Observable.standard(2), []) == 0.0

    def test_additivity_against_event_sum(self):
        for _ in range(50):
            rho = random_density(RNG, 5)
            obs = random_observable(RNG, 5)
            pair = list(RNG.choice(5, size=2, replace=False))
            expected = sum(event_probability(rho, obs, n) for n in pair)
            assert union_probability(rho, obs, pair) == pytest.approx(expected, abs=1e-12)

    def test_partition_sums_to_one(self):
        rho = random_density(RNG, 6)
        obs = random_observable(RNG, 6)
        total = union_probability(rho, obs, [0, 2, 4]) + union_probability(rho, obs, [1, 3, 5])
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            union_probability(DensityOperator.maximally_mixed(2), Observable.standard(2), [0, 0])

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            union_probability(DensityOperator.maximally_mixed(2), Observable.standard(2), [0, 5])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError) as excinfo:
            union_probability(DensityOperator.maximally_mixed(2), Observable.standard(3), [0, 1])
        assert str(excinfo.value) == "dimension mismatch: state 2, observable 3"
