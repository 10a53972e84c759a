import numpy as np
import pytest
from oracles import trace_norm

from kway.linalg import NotHermitianError, eigh


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# gap operator of the two-location protocol at phase pi:
# (2/3)|-><-| - (1/3)|+><+|, worked out entrywise
N2_GAP = np.array([[1 / 6, -1 / 2], [-1 / 2, 1 / 6]])


class TestEigh:
    def test_identity(self):
        lam, _ = eigh(np.eye(3))
        assert np.allclose(lam, [1, 1, 1])

    def test_diagonal_sorted(self):
        lam, _ = eigh(np.diag([2.0, -1.0]))
        assert np.allclose(lam, [-1, 2])

    def test_n2_protocol_gap_operator(self):
        lam, _ = eigh(N2_GAP)
        assert np.allclose(lam, [-1 / 3, 2 / 3], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotHermitianError):
            eigh(np.zeros((2, 3)))
        with pytest.raises(NotHermitianError):  # NaN deviates by NaN, which is not <= HERM_TOL
            eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("dim", [1, 2, 5, 16, 64])
    def test_reconstruction_and_orthonormality(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            h = random_hermitian(rng, dim)
            lam, v = eigh(h)
            assert np.all(np.diff(lam) >= 0)
            recon = v @ np.diag(lam) @ v.conj().T
            assert np.max(np.abs(recon - h)) <= 1e-10 * dim * max(1.0, np.max(np.abs(h)))
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-10


class TestTraceNorm:
    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_density_operator_is_one(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        assert trace_norm(rho) == pytest.approx(1.0, abs=1e-12)

    def test_n2_gap_operator(self):
        assert trace_norm(N2_GAP) == pytest.approx(1.0, abs=1e-12)

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(9)
        h = random_hermitian(rng, 6)
        base = trace_norm(h)
        for c in rng.normal(size=5):
            assert trace_norm(c * h) == pytest.approx(abs(c) * base, rel=1e-10)

    def test_unitary_invariance_of_distance(self):
        rng = np.random.default_rng(21)
        for dim in (2, 7, 16):
            a, b = random_hermitian(rng, dim), random_hermitian(rng, dim)
            d = trace_norm(a - b)
            u = random_unitary(rng, dim)
            au, bu = u @ a @ u.conj().T, u @ b @ u.conj().T
            assert trace_norm(au - bu) == pytest.approx(d, rel=1e-9)

    def test_lower_bounded_by_trace(self):
        rng = np.random.default_rng(33)
        h = random_hermitian(rng, 8)
        assert trace_norm(h) >= abs(np.trace(h).real) - 1e-12

