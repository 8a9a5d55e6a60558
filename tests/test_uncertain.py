import numpy as np
import pytest

from qprob.events import DensityOperator, Observable
from qprob.linalg import outer, trace
from qprob.prospects import mode_pfq
from qprob.sampling import random_density, random_observable, random_weights
from qprob.uncertain import (
    ModeWeights,
    UncertainUnion,
    proposition_operator,
    uncertain_probability,
    uncertain_state,
)

RNG = np.random.default_rng(4242)


def proposition_oracle(union):
    """Entrywise mixture-plus-coherence build of the proposition operator."""
    d = union.dim
    vectors = union.observable.spectral.eigenvectors
    w = union.weights.values
    out = np.zeros((d, d), dtype=complex)
    for n in range(d):
        out += abs(w[n]) ** 2 * outer(vectors[:, n], vectors[:, n])
    for m in range(d):
        for n in range(d):
            if m != n:
                out += np.conj(w[m]) * w[n] * outer(vectors[:, n], vectors[:, m])
    return out


def interference_oracle(rho, union):
    """Explicit double loop over distinct mode pairs."""
    vectors = union.observable.spectral.eigenvectors
    w = union.weights.values
    q = 0.0 + 0.0j
    for m in range(union.dim):
        for n in range(union.dim):
            if m != n:
                q += np.conj(w[m]) * w[n] * np.vdot(vectors[:, m], rho.matrix @ vectors[:, n])
    return q


class TestModeWeights:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum"):
            ModeWeights([1.0, 1.0])

    def test_normalized_constructor(self):
        w = ModeWeights.normalized([1.0, 1.0])
        assert np.allclose(w.values, [1 / np.sqrt(2)] * 2)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="cannot normalize the zero amplitude vector"):
            ModeWeights.normalized([0.0, 0.0])

    @pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-320, 1e200, 1.7e308])
    def test_normalizes_a_vector_outside_the_normal_range(self, scale):
        # the squared norm underflows, turns subnormal or overflows
        expected = ModeWeights.normalized([1.0, -1.0j, 0.5])
        got = ModeWeights.normalized([scale, -scale * 1j, 0.5 * scale])
        assert np.max(np.abs(got.values - expected.values)) <= 1e-15
        assert np.max(np.abs(got.probabilities() - expected.probabilities())) <= 1e-15

    def test_probabilities_are_read_only_squared_magnitudes(self):
        w = random_weights(RNG, 5)
        probabilities = w.probabilities()
        assert probabilities.tobytes() == (np.abs(w.values) ** 2).tobytes()
        with pytest.raises(ValueError):
            probabilities[0] = 0.0

    def test_length_must_match_observable(self):
        with pytest.raises(ValueError, match="length"):
            UncertainUnion(Observable.standard(3), ModeWeights.normalized([1.0, 1.0]))


class TestUncertainState:
    def test_single_mode_recovers_eigenvector(self):
        obs = random_observable(RNG, 3)
        w = ModeWeights(np.array([0.0, 1.0, 0.0], dtype=complex))
        state = uncertain_state(UncertainUnion(obs, w))
        assert np.allclose(state, obs.spectral.eigenvectors[:, 1], atol=0)

    def test_equal_weights_standard_basis(self):
        union = UncertainUnion(Observable.standard(2), ModeWeights.normalized([1.0, 1.0]))
        assert np.allclose(uncertain_state(union), [1 / np.sqrt(2)] * 2)

    def test_unit_norm(self):
        for _ in range(25):
            union = UncertainUnion(random_observable(RNG, 4), random_weights(RNG, 4))
            assert np.linalg.norm(uncertain_state(union)) == pytest.approx(1.0, abs=1e-12)


class TestPropositionOperator:
    def test_single_mode_is_projector(self):
        obs = random_observable(RNG, 3)
        w = ModeWeights(np.array([1.0, 0.0, 0.0], dtype=complex))
        op = proposition_operator(UncertainUnion(obs, w))
        assert np.max(np.abs(op @ op - op)) < 1e-12

    def test_equal_weights_matrix(self):
        union = UncertainUnion(Observable.standard(2), ModeWeights.normalized([1.0, 1.0]))
        assert np.allclose(proposition_operator(union), np.full((2, 2), 0.5))

    def test_matches_entrywise_oracle(self):
        for _ in range(25):
            union = UncertainUnion(random_observable(RNG, 4), random_weights(RNG, 4))
            got = proposition_operator(union)
            assert np.max(np.abs(got - proposition_oracle(union))) < 1e-12

    def test_trace_one_but_not_an_eigenprojector(self):
        union = UncertainUnion(Observable.standard(3), ModeWeights.normalized([1.0, 1.0, 1.0]))
        op = proposition_operator(union)
        assert trace(op).real == pytest.approx(1.0, abs=1e-12)
        # with unit-norm weights the operator is a rank-one projector, but it
        # mixes modes: it fails the orthogonality the event projectors enjoy
        p0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert np.max(np.abs(op @ p0 - p0 @ op)) > 1e-3


class TestUncertainProbability:
    def test_commuting_state_has_no_interference(self):
        rho = DensityOperator.diagonal([0.2, 0.5, 0.3])
        union = UncertainUnion(Observable.standard(3), random_weights(RNG, 3))
        result = uncertain_probability(rho, union)
        assert result.interference == pytest.approx(0.0, abs=1e-14)
        assert result.p == pytest.approx(result.diagonal, abs=1e-14)

    def test_own_state_is_certain(self):
        obs = random_observable(RNG, 3)
        weights = random_weights(RNG, 3)
        union = UncertainUnion(obs, weights)
        rho = DensityOperator.pure(uncertain_state(union))
        assert uncertain_probability(rho, union).p == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_trace_route(self):
        # two independent paths: matrix elements vs trace against the operator
        for dim in (2, 3, 4):
            for _ in range(334):
                rho = random_density(RNG, dim)
                union = UncertainUnion(random_observable(RNG, dim), random_weights(RNG, dim))
                direct = uncertain_probability(rho, union)
                via_trace = trace(rho.matrix @ proposition_operator(union)).real
                assert direct.p == pytest.approx(via_trace, abs=1e-12)

    def test_interference_matches_loop_oracle(self):
        for _ in range(50):
            rho = random_density(RNG, 4)
            union = UncertainUnion(random_observable(RNG, 4), random_weights(RNG, 4))
            oracle = interference_oracle(rho, union)
            assert abs(oracle.imag) < 1e-10
            got = uncertain_probability(rho, union)
            assert got.interference == pytest.approx(oracle.real, abs=1e-12)
            assert got.p == pytest.approx(got.diagonal + got.interference, abs=1e-15)

    def test_commutation_kills_interference_in_any_eigenbasis(self):
        obs = random_observable(RNG, 4)
        v = obs.spectral.eigenvectors
        diag = np.diag(RNG.dirichlet(np.ones(4)).astype(complex))
        rho = DensityOperator(v @ diag @ v.conj().T)
        union = UncertainUnion(obs, random_weights(RNG, 4))
        assert uncertain_probability(rho, union).interference == pytest.approx(0.0, abs=1e-12)

    def test_non_additivity_witness(self):
        # the plus state against equal weights: interference carries half the mass
        rho = DensityOperator.pure([1.0, 1.0])
        union = UncertainUnion(Observable.standard(2), ModeWeights.normalized([1.0, 1.0]))
        result = uncertain_probability(rho, union)
        assert abs(result.interference) > 0.1
        assert result.p != pytest.approx(result.diagonal, abs=0.1)

    def test_dimension_mismatch(self):
        union = UncertainUnion(Observable.standard(3), random_weights(RNG, 3))
        with pytest.raises(ValueError, match="mismatch"):
            uncertain_probability(DensityOperator.maximally_mixed(2), union)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_is_the_one_block_prospect_split(self, dim):
        # a prospect block is an uncertain union: one split, the same bits
        for _ in range(25):
            rho = random_density(RNG, dim)
            union = UncertainUnion(random_observable(RNG, dim), random_weights(RNG, dim))
            v = union.observable.spectral.eigenvectors
            _, f, q = mode_pfq(v.conj().T @ rho.matrix @ v, 1, dim, union.weights)
            result = uncertain_probability(rho, union)
            assert (result.diagonal, result.interference) == (f[0], q[0])
            assert type(result.diagonal) is float and type(result.interference) is float
