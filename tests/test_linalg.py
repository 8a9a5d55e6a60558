import numpy as np
import pytest

from qprob.linalg import (
    NotHermitianError,
    SpectralDecomposition,
    hermitian_eigen,
    kron,
    outer,
    scaled_norm,
    squares_fit,
    trace,
)

RNG = np.random.default_rng(1234)


def random_complex_matrix(n, m=None):
    m = n if m is None else m
    return RNG.standard_normal((n, m)) + 1j * RNG.standard_normal((n, m))


def random_hermitian(n):
    g = random_complex_matrix(n)
    return (g + g.conj().T) / 2.0


def kron_oracle(a, b):
    """Entrywise Kronecker product, independent of np.kron."""
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for k in range(b.shape[0]):
                for l in range(b.shape[1]):
                    out[i * b.shape[0] + k, j * b.shape[1] + l] = a[i, j] * b[k, l]
    return out


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        got = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.allclose(got, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_matches_entrywise_oracle(self):
        a, b = random_complex_matrix(3), random_complex_matrix(3)
        assert np.allclose(kron(a, b), kron_oracle(a, b), rtol=4 * np.finfo(float).eps, atol=0)

    @pytest.mark.parametrize(
        "shape_a, shape_b, complex_entries",
        [((3, 3), (2, 2), False), ((3, 3), (2, 2), True), ((2, 5), (4, 1), True), ((1, 3), (3, 2), False)],
    )
    def test_equals_np_kron_bit_for_bit(self, shape_a, shape_b, complex_entries):
        for _ in range(10):
            a = RNG.standard_normal(shape_a) + (1j * RNG.standard_normal(shape_a) if complex_entries else 0.0)
            b = RNG.standard_normal(shape_b) + (1j * RNG.standard_normal(shape_b) if complex_entries else 0.0)
            got = kron(a, b)
            expected = np.kron(a.astype(complex), b.astype(complex))
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_trace_factorizes(self):
        a, b = random_complex_matrix(3), random_complex_matrix(3)
        assert trace(kron(a, b)) == pytest.approx(trace(a) * trace(b), abs=1e-12)

    def test_size_guard(self):
        big = np.ones((1100, 1100))
        with pytest.raises(ValueError, match="entries"):
            kron(big, np.eye(2))

    def test_associative(self):
        for _ in range(20):
            a, b, c = (random_complex_matrix(2) for _ in range(3))
            assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)


class TestTrace:
    def test_identity(self):
        assert trace(np.eye(4)) == 4.0

    def test_outer_gives_inner(self):
        u = RNG.standard_normal(5) + 1j * RNG.standard_normal(5)
        v = RNG.standard_normal(5) + 1j * RNG.standard_normal(5)
        # trace |u><v| equals the inner product <v|u>
        assert trace(outer(u, v)) == pytest.approx(complex(np.vdot(v, u)), abs=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            trace(np.ones((2, 3)))

    def test_linear(self):
        a, b = random_complex_matrix(4), random_complex_matrix(4)
        alpha, beta = 0.7 - 0.2j, 1.5 + 0.4j
        assert trace(alpha * a + beta * b) == pytest.approx(
            alpha * trace(a) + beta * trace(b), abs=1e-12
        )

    def test_invariant_under_adjoint_for_hermitian(self):
        h = random_hermitian(4)
        assert trace(h.conj().T) == pytest.approx(trace(h), abs=1e-14)


class TestOuter:
    def test_basis_projector(self):
        e1 = np.zeros(3, dtype=complex)
        e1[0] = 1.0
        assert np.array_equal(outer(e1, e1), np.diag([1.0, 0.0, 0.0]).astype(complex))

    def test_hermitian_rank_one(self):
        u = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
        p = outer(u, u)
        assert np.allclose(p, p.conj().T, atol=0)
        assert np.linalg.matrix_rank(p, tol=1e-10) == 1

    def test_projector_scaling_identity(self):
        u = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        p = outer(u, u)
        norm2 = float(np.vdot(u, u).real)
        assert np.allclose(p @ p, norm2 * p, atol=1e-12)


class TestHermitianEigen:
    def test_identity_eigenvalues(self):
        dec = hermitian_eigen(np.eye(3))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])

    def test_pauli_x(self):
        dec = hermitian_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_reconstruction(self):
        h = random_hermitian(5)
        dec = hermitian_eigen(h)
        v = dec.eigenvectors
        assert np.max(np.abs((v * dec.eigenvalues) @ v.conj().T - h)) < 1e-10

    def test_gram_is_identity(self):
        dec = hermitian_eigen(random_hermitian(6))
        assert dec.gram_residual() < 1e-10

    def test_projectors_sum_to_identity(self):
        dec = hermitian_eigen(random_hermitian(4))
        total = sum(outer(v, v) for v in dec.eigenvectors.T)
        assert np.max(np.abs(total - np.eye(4))) < 1e-10

    def test_eigenvalues_ascending(self):
        dec = hermitian_eigen(random_hermitian(8))
        assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_oversized(self):
        with pytest.raises(ValueError, match="exceeds"):
            hermitian_eigen(np.eye(65))

    def test_degenerate_cluster_spans_eigenspace(self):
        # eigenvalue 1 twice: any orthonormal basis of the plane is fine
        dec = hermitian_eigen(np.diag([1.0, 1.0, 2.0]).astype(complex))
        assert dec.gram_residual() < 1e-12
        v = dec.eigenvectors
        assert np.max(np.abs((v * dec.eigenvalues) @ v.conj().T - np.diag([1.0, 1.0, 2.0]))) < 1e-12


def test_spectral_decomposition_dim():
    dec = SpectralDecomposition(
        eigenvalues=np.array([0.0, 1.0]), eigenvectors=np.eye(2, dtype=complex)
    )
    assert dec.dim == 2


class TestScaledNorm:
    @pytest.mark.parametrize(
        "magnitudes, fits",
        [([2.0**511], True), ([2.0**511, 0.0], False), ([2.0**511.5], False), ([1e-300], True)],
    )
    def test_squares_fit_decides_from_the_largest_entry(self, magnitudes, fits):
        assert squares_fit(np.array(magnitudes)) is fits

    @pytest.mark.parametrize("exponent", [-600, 0, 500, 511, 600])
    def test_direction_on_either_side_of_the_overflow_test(self, exponent):
        # powers of two scale exactly, so the unit vector keeps its bits
        # whichever side of the test the vector falls, and nothing warns
        unit = np.array([1.0, -1.0, 3.0 * 2.0**-60, 1j])
        u, norm = scaled_norm(unit * 2.0**exponent)
        assert np.array_equal(u / norm, unit / np.linalg.norm(unit))
