import numpy as np
import pytest

from qprob import prospects
from qprob.events import DensityOperator, Observable, event_probability, union_probability
from qprob.linalg import MAX_EIGEN_DIM, OutcomeIndexError, kron, outer, trace
from qprob.prospects import (
    CompositeState,
    DegenerateProspectError,
    Prospect,
    bell_like_state,
    composite_in_eigenbasis,
    dephase_modes,
    max_entangled_state,
    mode_pfq,
    partial_trace,
    product_state,
    prospect_operator,
    prospect_probabilities,
    prospect_state,
    standard_union_probability,
)
from qprob.sampling import (
    random_density,
    random_entangled_pure,
    random_observable,
    random_weights,
)
from qprob.uncertain import IMAG_RESIDUE_TOL, ModeWeights

RNG = np.random.default_rng(314159)


def pfq_oracle(state, weights):
    """Dense-matrix oracle for the raw (p, f, q) families.

    p from the expectation of the rank-one prospect operator, f from the
    weighted diagonal joint probabilities, q from an explicit loop over
    distinct second-factor mode pairs.
    """
    da, db = state.dim_a, state.dim_b
    rho = state.matrix
    w = weights.values
    p = np.empty(da)
    f = np.empty(da)
    q = np.empty(da)
    for n in range(da):
        pi = prospect_state(Prospect(n=n, weights=weights), da)
        p[n] = float(np.vdot(pi, rho @ pi).real)
        f[n] = sum(
            abs(w[a]) ** 2 * rho[n * db + a, n * db + a].real for a in range(db)
        )
        acc = 0.0 + 0.0j
        for a in range(db):
            for b in range(db):
                if a != b:
                    acc += np.conj(w[a]) * w[b] * rho[n * db + a, n * db + b]
        assert abs(acc.imag) < 1e-12
        q[n] = acc.real
    return p, f, q


def mode_pfq_loop(matrix, dim_a, dim_b, weights):
    """The per-block loop that ``mode_pfq`` replaced, kept as its oracle."""
    w = weights.values
    weight_probs = np.abs(w) ** 2
    blocks = matrix.reshape(dim_a, dim_b, dim_a, dim_b)
    f = np.empty(dim_a)
    q = np.empty(dim_a)
    for n in range(dim_a):
        block = blocks[n, :, n, :]
        diag = block.diagonal()
        f[n] = float(np.dot(weight_probs, diag.real))
        interference = np.vdot(w, block @ w) - np.dot(weight_probs, diag)
        if abs(interference.imag) >= IMAG_RESIDUE_TOL:
            raise ArithmeticError(f"interference term has imaginary residue {interference.imag:.3e}")
        q[n] = float(interference.real)
    return f + q, f, q


def partial_trace_oracle(state, keep):
    """Loop-based partial trace, independent of the einsum route."""
    da, db = state.dim_a, state.dim_b
    if keep == "A":
        out = np.zeros((da, da), dtype=complex)
        for i in range(da):
            for j in range(da):
                out[i, j] = sum(state.matrix[i * db + b, j * db + b] for b in range(db))
    else:
        out = np.zeros((db, db), dtype=complex)
        for i in range(db):
            for j in range(db):
                out[i, j] = sum(state.matrix[a * db + i, a * db + j] for a in range(da))
    return out


class TestJointProbability:
    def test_product_state_factorizes(self):
        rho_a = random_density(RNG, 2)
        rho_b = random_density(RNG, 3)
        state = product_state(rho_a, rho_b)
        for n in range(2):
            for alpha in range(3):
                expected = rho_a.matrix[n, n].real * rho_b.matrix[alpha, alpha].real
                assert standard_union_probability(state, n, (alpha,)) == pytest.approx(expected, abs=1e-12)

    def test_max_entangled_values(self):
        state = max_entangled_state(2)
        assert standard_union_probability(state, 0, (0,)) == pytest.approx(0.5, abs=1e-15)
        assert standard_union_probability(state, 0, (1,)) == 0.0

    def test_matches_trace_oracle(self):
        state = random_entangled_pure(RNG, 3, 2)
        for n in range(3):
            for alpha in range(2):
                pa = np.zeros((3, 3), dtype=complex)
                pa[n, n] = 1.0
                pb = np.zeros((2, 2), dtype=complex)
                pb[alpha, alpha] = 1.0
                expected = trace(state.matrix @ kron(pa, pb)).real
                assert standard_union_probability(state, n, (alpha,)) == pytest.approx(expected, abs=1e-13)

    def test_completeness(self):
        state = random_entangled_pure(RNG, 2, 3)
        total = sum(standard_union_probability(state, n, (a,)) for n in range(2) for a in range(3))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_index_checks(self):
        state = max_entangled_state(2)
        with pytest.raises(IndexError):
            standard_union_probability(state, 2, (0,))
        with pytest.raises(IndexError):
            standard_union_probability(state, 0, (2,))


class TestStandardUnion:
    def test_additivity(self):
        for _ in range(25):
            state = random_entangled_pure(RNG, 2, 4)
            subset = list(RNG.choice(4, size=2, replace=False))
            expected = sum(standard_union_probability(state, 1, (a,)) for a in subset)
            assert standard_union_probability(state, 1, subset) == pytest.approx(expected, abs=1e-12)

    def test_all_modes_give_marginal(self):
        state = random_entangled_pure(RNG, 2, 3)
        marginal = partial_trace(state, "A").matrix[0, 0].real
        assert standard_union_probability(state, 0, range(3)) == pytest.approx(marginal, abs=1e-12)

    def test_empty_set(self):
        assert standard_union_probability(max_entangled_state(2), 0, []) == 0.0

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            standard_union_probability(max_entangled_state(2), 0, [1, 1])


_OBS = Observable.standard(3)
_MIXED = DensityOperator.maximally_mixed(3)
_PAIR = max_entangled_state(2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: event_probability(_MIXED, _OBS, -1), OutcomeIndexError, "mode index -1 out of range for dimension 3"),
        (lambda: union_probability(_MIXED, _OBS, [0, 3]), OutcomeIndexError,
         "mode index 3 out of range for dimension 3"),
        (lambda: union_probability(_MIXED, _OBS, [1, 1]), ValueError, "duplicate indices in union: [1, 1]"),
        (lambda: standard_union_probability(_PAIR, 2, [0]), OutcomeIndexError,
         "first-factor index 2 out of range for dimension 2"),
        (lambda: standard_union_probability(_PAIR, 0, [0, -1]), OutcomeIndexError,
         "second-factor index -1 out of range for dimension 2"),
        (lambda: standard_union_probability(_PAIR, 0, [1, 1]), ValueError, "duplicate indices in union: [1, 1]"),
        (lambda: prospect_state(Prospect(n=2, weights=ModeWeights.normalized([1, 1])), 2), OutcomeIndexError,
         "mode index 2 out of range for dimension 2"),
        (lambda: prospect_state(Prospect(n=-1, weights=ModeWeights.normalized([1, 1])), 2), OutcomeIndexError,
         "mode index -1 out of range for dimension 2"),
    ],
    ids=[
        "event-probability", "union-range", "union-duplicate", "standard-union-first", "standard-union-second",
        "standard-union-duplicate", "prospect-state", "prospect-state-negative",
    ],
)
def test_outcome_index_rule_at_every_call_site(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


class TestProspectStateOperator:
    def test_block_placement(self):
        weights = ModeWeights(np.array([1.0, 0.0], dtype=complex))
        state = prospect_state(Prospect(n=0, weights=weights), 2)
        assert np.array_equal(state, np.array([1, 0, 0, 0], dtype=complex))

    def test_unit_norm(self):
        state = prospect_state(Prospect(n=1, weights=random_weights(RNG, 3)), 2)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_distinct_first_factor_indices_orthogonal(self):
        w = random_weights(RNG, 3)
        states = [prospect_state(Prospect(n=n, weights=w), 4) for n in range(4)]
        for m in range(4):
            for n in range(4):
                expected = 1.0 if m == n else 0.0
                assert np.vdot(states[m], states[n]).real == pytest.approx(expected, abs=1e-12)

    def test_operator_is_projector_for_basis_weights(self):
        weights = ModeWeights(np.array([0.0, 1.0], dtype=complex))
        op = prospect_operator(Prospect(n=1, weights=weights), 2)
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 3] = 1.0
        assert np.array_equal(op, expected)

    def test_operator_trace_one(self):
        op = prospect_operator(Prospect(n=0, weights=random_weights(RNG, 3)), 2)
        assert trace(op).real == pytest.approx(1.0, abs=1e-12)

    def test_operator_family_sums_to_block_identity(self):
        w = random_weights(RNG, 3)
        total = sum(prospect_operator(Prospect(n=n, weights=w), 2) for n in range(2))
        expected = kron(np.eye(2, dtype=complex), outer(w.values, w.values))
        assert np.max(np.abs(total - expected)) < 1e-12


class TestProspectProbabilities:
    def test_dust_violation_prints_a_plain_float(self, monkeypatch):
        family = np.array([1.5, -0.5])
        monkeypatch.setattr("qprob.prospects.mode_pfq", lambda *args: (family, family, family))
        with pytest.raises(ArithmeticError, match=r"^probability 1\.5 violates"):
            prospect_probabilities(bell_like_state(), ModeWeights.normalized([1.0, 1.0]))

    def test_bell_like_frozen_values(self):
        state = bell_like_state()
        weights = ModeWeights.normalized([1.0, 1.0])
        raw = prospect_probabilities(state, weights, mode="raw")
        assert np.max(np.abs(raw.p - [0.5, 0.0])) < 1e-12
        assert np.max(np.abs(raw.f - [0.25, 0.25])) < 1e-12
        assert np.max(np.abs(raw.q - [0.25, -0.25])) < 1e-12
        normalized = prospect_probabilities(state, weights, mode="normalized")
        assert np.max(np.abs(normalized.p - [1.0, 0.0])) < 1e-12
        assert np.max(np.abs(normalized.f - [0.5, 0.5])) < 1e-12
        assert np.max(np.abs(normalized.q - [0.5, -0.5])) < 1e-12

    @pytest.mark.parametrize("dim_a,dim_b", [(1, 3), (2, 2), (3, 5), (4, 4), (8, 8)])
    def test_mode_pfq_matches_block_loop(self, dim_a, dim_b):
        for _ in range(10):
            state = CompositeState(rho=random_density(RNG, dim_a * dim_b), dim_a=dim_a, dim_b=dim_b)
            weights = random_weights(RNG, dim_b)
            got = mode_pfq(state.matrix, dim_a, dim_b, weights)
            want = mode_pfq_loop(state.matrix, dim_a, dim_b, weights)
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= 1e-15

    def test_mode_pfq_rejects_non_hermitian_block(self):
        matrix = np.zeros((4, 4), dtype=complex)
        matrix[2, 3] = 1j
        weights = ModeWeights.normalized(np.ones(2))
        for pfq in (mode_pfq, mode_pfq_loop):
            with pytest.raises(ArithmeticError, match="imaginary residue 5.000e-01"):
                pfq(matrix, 2, 2, weights)

    @pytest.mark.parametrize("nan_block", [0, 1])
    def test_mode_pfq_reports_no_residue_next_to_a_nan_block(self, nan_block):
        # the residue is a NaN-propagating max, wherever the NaN block sits
        matrix = np.zeros((4, 4), dtype=complex)
        matrix[2 - 2 * nan_block, 3 - 2 * nan_block] = 1j
        matrix[2 * nan_block, 2 * nan_block] = complex(0.0, np.nan)
        p, f, q = mode_pfq(matrix, 2, 2, ModeWeights.normalized(np.ones(2)))
        assert np.isnan(q[nan_block]) and not np.isnan(q[1 - nan_block])

    def test_matches_dense_oracle(self):
        for dim_a, dim_b in ((2, 2), (2, 3), (3, 3)):
            for _ in range(50):
                state = random_entangled_pure(RNG, dim_a, dim_b)
                weights = random_weights(RNG, dim_b)
                raw = prospect_probabilities(state, weights, mode="raw")
                p, f, q = pfq_oracle(state, weights)
                assert np.max(np.abs(raw.p - p)) < 1e-12
                assert np.max(np.abs(raw.f - f)) < 1e-12
                assert np.max(np.abs(raw.q - q)) < 1e-12

    def test_decomposition_raw_and_normalized(self):
        for dim_a, dim_b in ((2, 2), (2, 3), (3, 3)):
            for _ in range(334):
                state = random_entangled_pure(RNG, dim_a, dim_b)
                weights = random_weights(RNG, dim_b)
                raw = prospect_probabilities(state, weights, mode="raw")
                assert np.max(np.abs(raw.p - raw.f - raw.q)) < 1e-15
                norm = prospect_probabilities(state, weights, mode="normalized")
                assert np.max(np.abs(norm.p - norm.f - norm.q)) < 1e-12

    def test_normalized_measure_axioms(self):
        for dim_a, dim_b in ((2, 2), (2, 3), (3, 3)):
            for _ in range(100):
                state = random_entangled_pure(RNG, dim_a, dim_b)
                res = prospect_probabilities(state, random_weights(RNG, dim_b), mode="normalized")
                assert res.p.sum() == pytest.approx(1.0, abs=1e-10)
                assert res.f.sum() == pytest.approx(1.0, abs=1e-10)
                assert res.q.sum() == pytest.approx(0.0, abs=1e-10)
                assert np.all((res.p >= 0.0) & (res.p <= 1.0))
                assert np.all((res.f >= 0.0) & (res.f <= 1.0))
                assert np.all(np.abs(res.q) <= 1.0)

    def test_zero_interference_for_product_states(self):
        # raw interference does not vanish for products; the normalized
        # families carry the theorem, their sum rules forcing q to zero
        for dim_a, dim_b in ((2, 2), (2, 3), (3, 3)):
            for _ in range(100):
                state = product_state(random_density(RNG, dim_a), random_density(RNG, dim_b))
                res = prospect_probabilities(state, random_weights(RNG, dim_b), mode="normalized")
                assert np.max(np.abs(res.q)) < 1e-12

    def test_zero_interference_for_max_entangled(self):
        for m in range(2, 7):
            state = max_entangled_state(m)
            for _ in range(20):
                res = prospect_probabilities(state, random_weights(RNG, m), mode="raw")
                assert np.max(np.abs(res.q)) < 1e-12

    def test_entangled_interference_witness(self):
        res = prospect_probabilities(bell_like_state(), ModeWeights.normalized([1.0, 1.0]), mode="raw")
        assert np.max(np.abs(res.q)) > 0.1

    def test_separable_mixed_state_interferes_like_the_bell_like_state(self):
        # 1/2 (|0><0| (x) |+><+| + |1><1| (x) |-><-|) is separable, yet with
        # weights (1, 1)/sqrt(2) its normalized q equals the entangled state's.
        plus, minus = np.array([1.0, 1.0]) / np.sqrt(2.0), np.array([1.0, -1.0]) / np.sqrt(2.0)
        matrix = 0.5 * (kron(np.diag([1.0, 0.0]), outer(plus, plus)) + kron(np.diag([0.0, 1.0]), outer(minus, minus)))
        state = CompositeState(rho=DensityOperator(matrix), dim_a=2, dim_b=2)
        weights = ModeWeights.normalized([1.0, 1.0])
        separable = prospect_probabilities(state, weights, mode="normalized")
        entangled = prospect_probabilities(bell_like_state(), weights, mode="normalized")
        assert np.max(np.abs(separable.q - [0.5, -0.5])) < 1e-12
        assert np.max(np.abs(separable.q - entangled.q)) < 1e-12

    def test_decoherence_limit_is_linear(self):
        state = bell_like_state()
        weights = ModeWeights.normalized([1.0, 1.0])
        dephased = dephase_modes(state)
        _, _, q_full = mode_pfq(state.matrix, 2, 2, weights)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            matrix = (1.0 - lam) * dephased + lam * state.matrix
            _, _, q = mode_pfq(matrix, 2, 2, weights)
            assert np.max(np.abs(q - lam * q_full)) < 1e-12
        _, _, q_zero = mode_pfq(dephased, 2, 2, weights)
        assert np.max(np.abs(q_zero)) == 0.0

    def test_degenerate_family_raises(self):
        # state lives entirely in the second factor's mode 0, weights in mode 1
        rho = DensityOperator.pure([1.0, 0.0, 0.0, 0.0])
        state = CompositeState(rho=rho, dim_a=2, dim_b=2)
        weights = ModeWeights(np.array([0.0, 1.0], dtype=complex))
        with pytest.raises(DegenerateProspectError):
            prospect_probabilities(state, weights, mode="normalized")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="weight length"):
            prospect_probabilities(max_entangled_state(2), random_weights(RNG, 3))


class TestStateBuilders:
    def test_product_of_pure_states_is_pure(self):
        state = product_state(
            DensityOperator.pure([1.0, 1.0]), DensityOperator.pure([1.0, -1.0])
        )
        assert np.linalg.matrix_rank(state.matrix, tol=1e-10) == 1
        assert trace(state.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_product_partial_trace_recovers_factors(self):
        rho_a = random_density(RNG, 2)
        rho_b = random_density(RNG, 3)
        state = product_state(rho_a, rho_b)
        assert np.max(np.abs(partial_trace(state, "A").matrix - rho_a.matrix)) < 1e-12
        assert np.max(np.abs(partial_trace(state, "B").matrix - rho_b.matrix)) < 1e-12

    def test_partial_trace_matches_loop_oracle(self):
        state = random_entangled_pure(RNG, 3, 2)
        for keep in ("A", "B"):
            assert np.max(np.abs(partial_trace(state, keep).matrix - partial_trace_oracle(state, keep))) < 1e-14

    def test_max_entangled_two_modes_matrix(self):
        state = max_entangled_state(2)
        expected = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        assert np.array_equal(state.matrix.real, expected)
        assert np.array_equal(state.matrix.imag, np.zeros((4, 4)))

    def test_max_entangled_is_pure(self):
        state = max_entangled_state(3)
        assert trace(state.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(state.matrix @ state.matrix - state.matrix)) < 1e-12

    def test_max_entangled_marginals_maximally_mixed(self):
        for m in (2, 3, 4):
            state = max_entangled_state(m)
            for keep in ("A", "B"):
                reduced = partial_trace(state, keep).matrix
                assert np.max(np.abs(reduced - np.eye(m) / m)) < 1e-12

    def test_bell_like_matrix(self):
        # the exact outer product of the amplitudes (1, 1, 1, -1)/2
        amplitudes = np.array([0.5, 0.5, 0.5, -0.5], dtype=complex)
        state = bell_like_state()
        assert (state.dim_a, state.dim_b) == (2, 2)
        assert np.array_equal(state.matrix, np.outer(amplitudes, amplitudes.conj()))

    def test_max_entangled_rejects_small(self):
        with pytest.raises(ValueError):
            max_entangled_state(1)

    def test_product_refuses_an_oversized_dimension_before_kron(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the dimension cap must stop product_state before kron")

        monkeypatch.setattr(prospects, "kron", unreachable)
        rho = DensityOperator.maximally_mixed(9)
        with pytest.raises(ValueError, match=f"dimension 81 exceeds supported maximum {MAX_EIGEN_DIM}"):
            product_state(rho, rho)


def test_composite_in_eigenbasis_round_trip():
    # rotating into the computational eigenbasis is the identity
    state = random_entangled_pure(RNG, 2, 3)
    obs_a = Observable.standard(2)
    obs_b = Observable.standard(3)
    rotated = composite_in_eigenbasis(state, obs_a, obs_b)
    assert np.max(np.abs(rotated.matrix - state.matrix)) < 1e-12


def test_composite_in_eigenbasis_diagonalizes_joint_probabilities():
    # build a product state rotated by per-factor unitaries, then undo it
    obs_a = random_observable(RNG, 2)
    obs_b = random_observable(RNG, 2)
    diag_probs_a = np.array([0.25, 0.75])
    diag_probs_b = np.array([0.6, 0.4])
    va = obs_a.spectral.eigenvectors
    vb = obs_b.spectral.eigenvectors
    rho_a = DensityOperator(va @ np.diag(diag_probs_a.astype(complex)) @ va.conj().T)
    rho_b = DensityOperator(vb @ np.diag(diag_probs_b.astype(complex)) @ vb.conj().T)
    state = product_state(rho_a, rho_b)
    rotated = composite_in_eigenbasis(state, obs_a, obs_b)
    for n in range(2):
        for alpha in range(2):
            assert standard_union_probability(rotated, n, (alpha,)) == pytest.approx(
                diag_probs_a[n] * diag_probs_b[alpha], abs=1e-12
            )
